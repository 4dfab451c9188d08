#include "mrt/stream_reader.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/parallel.hpp"
#include "mrt/reader.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace htor::mrt {

namespace {

/// Registry handles for the ingest metric catalogue (README "Observability").
/// Resolved once — next() runs per record, so per-call name lookups would be
/// measurable; the handles themselves are just sharded-cell pointers.
struct IngestMetrics {
  obs::Counter records = obs::MetricsRegistry::global().counter("htor_ingest_records_total");
  obs::Counter bytes = obs::MetricsRegistry::global().counter("htor_ingest_bytes_total");
  obs::Counter batches = obs::MetricsRegistry::global().counter("htor_ingest_batches_total");

  obs::Counter decode_error(const char* reason) {
    return obs::MetricsRegistry::global().counter("htor_ingest_decode_errors_total",
                                                  {{"reason", reason}});
  }

  static IngestMetrics& get() {
    static IngestMetrics metrics;
    return metrics;
  }
};

bool is_peer_index_table(const RawFramedRecord& rec) {
  return rec.type == static_cast<std::uint16_t>(MrtType::TableDumpV2) &&
         rec.subtype == static_cast<std::uint16_t>(TableDumpV2Subtype::PeerIndexTable);
}

bool is_rib_record(const RawFramedRecord& rec) {
  return rec.type == static_cast<std::uint16_t>(MrtType::TableDumpV2) &&
         (rec.subtype == static_cast<std::uint16_t>(TableDumpV2Subtype::RibIpv4Unicast) ||
          rec.subtype == static_cast<std::uint16_t>(TableDumpV2Subtype::RibIpv6Unicast));
}

/// One batched record awaiting parallel decode: the raw frame plus the
/// peer-index table that governs it (null for non-RIB records, which decode
/// for validation only).
struct PendingRecord {
  RawFramedRecord raw;
  std::shared_ptr<const PeerIndexTable> peers;
};

Record decode(const RawFramedRecord& raw) {
  return decode_record_body(raw.timestamp, raw.type, raw.subtype, raw.body);
}

/// Decode + join one batch on the pool; each shard's routes then append to
/// the RIB in record order.
void flush_batch(std::vector<PendingRecord>& batch, ThreadPool& pool, ObservedRib& rib) {
  IngestMetrics::get().batches.inc();
  // Why each shard failed, by shard index.  shard_map rethrows the first
  // failed shard's error once every shard is done, so counting only that
  // shard's reason counts the aborted ingest exactly once.
  std::vector<const char*> failures(core::kCensusShards, nullptr);
  std::vector<std::vector<ObservedRoute>> shards;
  try {
    OBS_SPAN("ingest.decode");
    shards = core::shard_map(pool, batch.size(), [&batch, &failures](const core::ShardRange& range) {
      std::vector<ObservedRoute> routes;
      const char* step = nullptr;  // what the record being handled is doing
      try {
        for (std::size_t i = range.begin; i < range.end; ++i) {
          const PendingRecord& item = batch[i];
          step = "record_body";
          const Record record = decode(item.raw);
          const auto* rib_rec = std::get_if<RibPrefixRecord>(&record.body);
          if (rib_rec == nullptr) continue;  // decoded only to validate the bytes
          step = "peer_index_out_of_range";
          join_rib_record(*rib_rec, *item.peers, routes);
        }
      } catch (const DecodeError&) {
        failures[range.index] = step;
        throw;
      }
      return routes;
    });
  } catch (const DecodeError&) {
    const auto first = std::find_if(failures.begin(), failures.end(),
                                     [](const char* reason) { return reason != nullptr; });
    if (first != failures.end()) IngestMetrics::get().decode_error(*first).inc();
    throw;
  }
  {
    OBS_SPAN("ingest.apply");
    for (auto& routes : shards) rib.append(std::move(routes));
  }
  batch.clear();
}

}  // namespace

MrtStreamReader::MrtStreamReader(const std::string& path)
    : source_(path), io_buffer_(kIoBufferBytes) {
  // pubsetbuf must precede open() to take effect portably.
  in_.rdbuf()->pubsetbuf(io_buffer_.data(), static_cast<std::streamsize>(io_buffer_.size()));
  in_.open(path, std::ios::binary);
  if (!in_) throw Error("cannot open '" + path + "'");
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  if (size < 0) throw Error("cannot determine size of '" + path + "'");
  file_size_ = static_cast<std::uint64_t>(size);
  in_.seekg(0);
}

MrtStreamReader::MrtStreamReader(std::span<const std::uint8_t> data)
    : source_("<memory>"), memory_(data), file_size_(data.size()) {}

std::size_t MrtStreamReader::read(std::uint8_t* dst, std::size_t n) {
  if (!in_.is_open()) {
    const std::size_t got = std::min(n, memory_.size());
    std::copy_n(memory_.begin(), got, dst);
    memory_ = memory_.subspan(got);
    return got;
  }
  // lint: allow(raw-cast) istream::read takes char*; callers pass a header
  // buffer or a body whose length was bounded against the file size
  in_.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
  const auto got = static_cast<std::size_t>(in_.gcount());
  if (got < n && !in_.eof()) {
    throw Error("read from '" + source_ + "' failed at byte " + std::to_string(bytes_));
  }
  return got;
}

std::optional<RawFramedRecord> MrtStreamReader::next() {
  constexpr std::size_t kHeaderBytes = 12;
  std::uint8_t header[kHeaderBytes];
  const std::size_t got = read(header, kHeaderBytes);
  if (got == 0) return std::nullopt;  // clean end of input
  if (got < kHeaderBytes) {
    IngestMetrics::get().decode_error("truncated_header").inc();
    throw DecodeError("truncated MRT record header at byte " + std::to_string(bytes_) + " of '" +
                      source_ + "': " + std::to_string(got) + " of 12 bytes");
  }

  ByteReader hdr(std::span<const std::uint8_t>(header, kHeaderBytes));
  RawFramedRecord rec;
  rec.timestamp = hdr.u32();
  rec.type = hdr.u16();
  rec.subtype = hdr.u16();
  const std::uint32_t length = hdr.u32();

  // Validate framing against the source size before allocating: a corrupt
  // length field must fail cleanly, not over-allocate or short-read.  A
  // file's size was snapshotted at open, so a file that grows underneath us
  // (a collector still appending) reads as truncated at the snapshot, not as
  // an unsigned underflow that would disable this guard.
  const std::uint64_t body_start = bytes_ + kHeaderBytes;
  if (body_start > file_size_) {
    IngestMetrics::get().decode_error("header_overrun").inc();
    throw DecodeError("MRT record header at byte " + std::to_string(bytes_) + " of '" + source_ +
                      "' extends past the file size observed at open (" +
                      std::to_string(file_size_) + " bytes); file changed while reading?");
  }
  if (length > file_size_ - body_start) {
    IngestMetrics::get().decode_error("body_overrun").inc();
    throw DecodeError("MRT record at byte " + std::to_string(bytes_) + " of '" + source_ +
                      "' declares " + std::to_string(length) + " body bytes but only " +
                      std::to_string(file_size_ - body_start) + " remain");
  }

  rec.body.resize(length);
  if (read(rec.body.data(), length) < length) {  // the file shrank under us
    IngestMetrics::get().decode_error("truncated_body").inc();
    throw DecodeError("truncated MRT record body at byte " + std::to_string(body_start) +
                      " of '" + source_ + "'");
  }

  bytes_ = body_start + length;
  ++records_;
  IngestMetrics::get().records.inc();
  IngestMetrics::get().bytes.inc(kHeaderBytes + length);
  return rec;
}

std::optional<RawFramedRecord> MrtStreamReader::next_update() {
  while (auto raw = next()) {
    const bool is_update =
        raw->type == static_cast<std::uint16_t>(MrtType::Bgp4mp) &&
        (raw->subtype == static_cast<std::uint16_t>(Bgp4mpSubtype::Message) ||
         raw->subtype == static_cast<std::uint16_t>(Bgp4mpSubtype::MessageAs4));
    if (is_update) return raw;
    ++skipped_;  // skipped by header alone; the body is never decoded
  }
  return std::nullopt;
}

ObservedRib rib_from_stream(MrtStreamReader& stream, ThreadPool& pool,
                            std::size_t batch_records) {
  OBS_SPAN("ingest");
  ObservedRib rib;

  // Peer-index tables decode inline during the header scan — they are rare
  // (one per dump), cheap, and must govern the RIB records that follow them
  // within the same batch.  shared_ptr keeps a table alive for exactly the
  // batches that reference it.
  std::shared_ptr<const PeerIndexTable> current_peers;
  std::vector<PendingRecord> batch;
  batch.reserve(batch_records);

  while (auto raw = stream.next()) {
    if (is_peer_index_table(*raw)) {
      Record record;
      try {
        record = decode(*raw);
      } catch (const DecodeError&) {
        IngestMetrics::get().decode_error("record_body").inc();
        throw;
      }
      current_peers = std::make_shared<const PeerIndexTable>(
          std::move(std::get<PeerIndexTable>(record.body)));
      continue;
    }
    if (is_rib_record(*raw)) {
      if (current_peers == nullptr) {
        IngestMetrics::get().decode_error("rib_before_peer_table").inc();
        throw DecodeError("RIB record before any PEER_INDEX_TABLE");
      }
      batch.push_back(PendingRecord{std::move(*raw), current_peers});
    } else {
      // Non-RIB records contribute no routes but still decode (in the batch,
      // on the pool) so corrupt bytes anywhere in the input fail the ingest.
      batch.push_back(PendingRecord{std::move(*raw), nullptr});
    }
    if (batch.size() >= batch_records) flush_batch(batch, pool, rib);
  }
  flush_batch(batch, pool, rib);
  return rib;
}

}  // namespace htor::mrt
