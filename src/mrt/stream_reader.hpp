// The one MRT ingest path.  MrtStreamReader frames records from a file
// (buffered I/O) or from an in-memory buffer; rib_from_stream() hands the
// raw record bodies to a thread pool in fixed-size batches for parallel
// decode and joins routes straight into an ObservedRib — without ever
// materializing the whole file or a full Record vector.
//
// Peak memory is one batch of raw bodies plus their decoded routes plus the
// growing RIB.  Batches have a FIXED record count and shard with the fixed
// shard_ranges(), appending strictly in record order, so the RIB is
// byte-identical at any pool size and any batch size.  `census`, the `follow`
// seed load (core::load_rib), perfbench and fuzz_mrt all ingest this way.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mrt/rib_view.hpp"
#include "util/thread_pool.hpp"

namespace htor::mrt {

/// One record as framed on the wire: common-header fields plus the raw,
/// not-yet-decoded body bytes.
struct RawFramedRecord {
  std::uint32_t timestamp = 0;
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::vector<std::uint8_t> body;

  friend bool operator==(const RawFramedRecord&, const RawFramedRecord&) = default;
};

/// Sequential header scanner over an MRT file (or pipe) or buffer.  Only the
/// 12-byte common header is interpreted here; bodies are returned raw for
/// the caller to decode (possibly in parallel).  Bodies are read in bounded
/// chunks, so a garbage or truncated length field fails with DecodeError at
/// the offending record after at most one chunk is allocated, never with a
/// short body.  Both sources frame identically: they differ only in where
/// read() copies bytes from.
class MrtStreamReader {
 public:
  /// Opens `path` for buffered binary reading; it need not be seekable (a
  /// pipe such as /dev/fd/N works).  Throws Error when it cannot be opened.
  explicit MrtStreamReader(const std::string& path);

  /// Frames an in-memory buffer (not copied; must outlive the reader).
  explicit MrtStreamReader(std::span<const std::uint8_t> data);

  /// Next framed record, or nullopt at clean end of input.  Throws
  /// DecodeError on a truncated header or a body shorter than its length
  /// field declares; throws Error on I/O failure.
  std::optional<RawFramedRecord> next();

  /// Next BGP4MP MESSAGE / MESSAGE_AS4 frame, or nullopt at end of input.
  /// Frames of any other type or subtype (RIB snapshots, state changes,
  /// unknown types) are skipped by header alone — never decoded — and
  /// counted in updates_skipped().  This is the iteration mode the live
  /// update pipeline reads with, so a mixed dump+updates file works without
  /// a second ad-hoc scanner.  Framing errors throw exactly as next() does.
  std::optional<RawFramedRecord> next_update();

  std::uint64_t records_read() const { return records_; }
  /// MRT timestamp of the first record framed (0 before any): the dump's
  /// epoch, without reopening a source that may be a pipe.
  std::uint32_t first_timestamp() const { return first_timestamp_; }
  std::uint64_t bytes_read() const { return bytes_; }
  /// Frames next_update() passed over because they were not BGP4MP messages.
  std::uint64_t updates_skipped() const { return skipped_; }

 private:
  static constexpr std::size_t kIoBufferBytes = 256 * 1024;
  static constexpr std::size_t kBodyChunkBytes = 1024 * 1024;

  /// Copy up to `n` bytes of the source into `dst`; fewer only at end of
  /// input.  Throws Error on an I/O failure.
  std::size_t read(std::uint8_t* dst, std::size_t n);

  std::string source_;  ///< the path, or "<memory>"; names the input in errors
  std::vector<char> io_buffer_;
  std::ifstream in_;                      ///< open only for a file source
  std::span<const std::uint8_t> memory_;  ///< unread bytes of a memory source
  std::uint64_t bytes_ = 0;  ///< consumed so far (headers + bodies)
  std::uint64_t records_ = 0;
  std::uint32_t first_timestamp_ = 0;
  std::uint64_t skipped_ = 0;
};

/// Records per decode batch.  Fixed (never derived from the pool size) so
/// batch boundaries — and therefore output — are identical for any --jobs.
inline constexpr std::size_t kStreamBatchRecords = 4096;

/// The record -> RIB join: read `stream` to its end into an ObservedRib.
/// Headers are scanned sequentially; PEER_INDEX_TABLEs decode inline and
/// govern the RIB records after them; bodies of each `batch_records` batch
/// decode in parallel on `pool`, and each shard's joined routes append in
/// record order.  Every record is fully decoded (non-RIB bodies too), so any
/// malformed record fails the whole ingest with DecodeError — never a
/// partial RIB — and each such abort is counted once in
/// htor_ingest_decode_errors_total{reason}.  A ThreadPool(1) runs the whole
/// ingest inline; callers outside tests keep the default batch size.
ObservedRib rib_from_stream(MrtStreamReader& stream, ThreadPool& pool,
                            std::size_t batch_records = kStreamBatchRecords);

}  // namespace htor::mrt
