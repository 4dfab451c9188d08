// Tests for the one MRT ingest path: the framer gives identical frames from
// a file, a pipe and memory, rib_from_stream equals the test-side reference
// join at any pool size, batch size and source, and truncated or garbage
// framing fails with a clean DecodeError — never a partial RIB.
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/pipeline.hpp"
#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "reference_join.hpp"

namespace htor::mrt {
namespace {

/// A real multi-record TABLE_DUMP_V2 dump from the synthetic collector.
const std::vector<std::uint8_t>& sample_dump() {
  static const std::vector<std::uint8_t> bytes = [] {
    const auto net = gen::SyntheticInternet::generate(gen::small_params(21));
    MrtWriter writer;
    for (const auto& rec : records_from_rib(net.collect(), 1, "stream", 1281052800u)) {
      writer.write(rec);
    }
    return writer.take();
  }();
  return bytes;
}

std::string write_temp(const std::vector<std::uint8_t>& bytes, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  return path;
}

/// Every frame of `stream`, or DecodeError at the first framing fault.
std::vector<RawFramedRecord> all_frames(MrtStreamReader& stream) {
  std::vector<RawFramedRecord> frames;
  while (auto frame = stream.next()) frames.push_back(std::move(*frame));
  return frames;
}

/// rib_from_stream over the file at `path`.
ObservedRib stream_file(const std::string& path, ThreadPool& pool,
                        std::size_t batch = kStreamBatchRecords) {
  MrtStreamReader stream(path);
  return rib_from_stream(stream, pool, batch);
}

/// rib_from_stream over an in-memory buffer.
ObservedRib stream_memory(const std::vector<std::uint8_t>& bytes, ThreadPool& pool,
                          std::size_t batch = kStreamBatchRecords) {
  MrtStreamReader stream(bytes);
  return rib_from_stream(stream, pool, batch);
}

/// Offset of the first record boundary at or past the middle of `bytes`.
std::size_t mid_boundary(const std::vector<std::uint8_t>& bytes) {
  MrtStreamReader probe(bytes);
  while (probe.bytes_read() < bytes.size() / 2 && probe.next()) {
  }
  return probe.bytes_read();
}

// The file and memory sources frame identically: same frames, same counters.
TEST(MrtStreamReader, FramesMatchInMemoryReader) {
  const auto& bytes = sample_dump();
  const std::string path = write_temp(bytes, "stream_frames.mrt");

  MrtStreamReader file(path);
  MrtStreamReader memory(bytes);
  const auto file_frames = all_frames(file);
  const auto memory_frames = all_frames(memory);
  ASSERT_EQ(file_frames.size(), read_all(bytes).size());
  EXPECT_EQ(file_frames, memory_frames);
  for (const MrtStreamReader* stream : {&file, &memory}) {
    EXPECT_EQ(stream->records_read(), file_frames.size());
    EXPECT_EQ(stream->bytes_read(), bytes.size());
  }
  std::remove(path.c_str());

  // Both sources reject the same malformed framing.
  const std::size_t boundary = mid_boundary(bytes);
  ASSERT_GT(boundary, 0u);
  std::vector<std::uint8_t> truncated_header(bytes.begin(),
                                             bytes.begin() + static_cast<long>(boundary));
  truncated_header.insert(truncated_header.end(), {0x4c, 0x3a, 0x5e, 0x00, 0x00});
  auto garbage_length = bytes;
  garbage_length.insert(garbage_length.end(), {0x00, 0x00, 0x00, 0x01, 0x00, 0x0d, 0x00, 0x02,
                                               0xff, 0xff, 0xff, 0xff});
  std::vector<std::uint8_t> truncated_body(bytes.begin(), bytes.end() - 7);
  for (const auto& bad : {truncated_header, garbage_length, truncated_body}) {
    const std::string bad_path = write_temp(bad, "stream_bad_frames.mrt");
    MrtStreamReader bad_file(bad_path);
    MrtStreamReader bad_memory(bad);
    EXPECT_THROW(all_frames(bad_file), DecodeError) << bad.size() << " bytes";
    EXPECT_THROW(all_frames(bad_memory), DecodeError) << bad.size() << " bytes";
    std::remove(bad_path.c_str());
  }
}

/// Feeds `bytes` into a real pipe from a writer thread while `consume` reads
/// the pipe through the path /dev/fd/<read end>, as a shell's `<(cat f)`
/// hands it over.
template <typename Consume>
void through_pipe(const std::vector<std::uint8_t>& bytes, Consume consume) {
  std::signal(SIGPIPE, SIG_IGN);  // a reader that quits early fails, not kills, the test
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer([&bytes, fd = fds[1]] {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n <= 0) break;  // the reader gave up early
      done += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  try {
    consume("/dev/fd/" + std::to_string(fds[0]));
  } catch (...) {
    ::close(fds[0]);
    writer.join();
    throw;
  }
  ::close(fds[0]);
  writer.join();
}

// A pipe has no size to seek to: it streams into the same RIB as the file,
// and the dump's epoch is known without reading it twice.
TEST(MrtStreamReader, PipeYieldsSameRibAsFile) {
  const auto& bytes = sample_dump();
  const std::string path = write_temp(bytes, "stream_pipe.mrt");
  ThreadPool pool(4);
  const ObservedRib from_file = stream_file(path, pool);
  std::remove(path.c_str());
  ASSERT_GT(from_file.size(), 0u);
  through_pipe(bytes, [&](const std::string& pipe_path) {
    MrtStreamReader stream(pipe_path);
    const ObservedRib from_pipe = rib_from_stream(stream, pool);
    EXPECT_EQ(from_pipe.routes(), from_file.routes());
    EXPECT_EQ(stream.first_timestamp(), 1281052800u);
  });
}

// Bodies above the 1 MiB read chunk arrive whole from memory and from a
// pipe; a length that overruns the input fails as a truncated body.
TEST(MrtStreamReader, MultiChunkBodiesAndOverrunsFromAnySource) {
  std::vector<std::uint8_t> big(3 * 1024 * 1024 + 5);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 7);
  MrtWriter writer;
  writer.write(Record{1, RawRecord{99, 1, big}});
  writer.write(Record{2, RawRecord{99, 2, {1, 2, 3}}});
  const std::vector<std::uint8_t> bytes = writer.take();

  MrtStreamReader memory(bytes);
  const auto frames = all_frames(memory);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].body, big);
  through_pipe(bytes, [&](const std::string& pipe_path) {
    MrtStreamReader pipe(pipe_path);
    EXPECT_EQ(all_frames(pipe), frames);
  });

  // Cut 1 MiB + 1 byte into the big body: the second chunk comes up short.
  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 12 + (1 << 20) + 1);
  MrtStreamReader cut_memory(cut);
  EXPECT_THROW(all_frames(cut_memory), DecodeError);
  through_pipe(cut, [](const std::string& pipe_path) {
    MrtStreamReader pipe(pipe_path);
    EXPECT_THROW(all_frames(pipe), DecodeError);
  });
}

TEST(MrtStreamReader, MissingFileThrows) {
  EXPECT_THROW(MrtStreamReader("/nonexistent/nope.mrt"), Error);
  ThreadPool pool(1);
  EXPECT_THROW(core::load_rib("/nonexistent/nope.mrt", pool), Error);
}

TEST(MrtStreamReader, EmptyFileIsCleanEof) {
  const std::string path = write_temp({}, "stream_empty.mrt");
  MrtStreamReader stream(path);
  EXPECT_FALSE(stream.next().has_value());
  ThreadPool pool(1);
  EXPECT_EQ(stream_file(path, pool).size(), 0u);
  EXPECT_EQ(stream_memory({}, pool).size(), 0u);
  std::remove(path.c_str());
}

// A header cut short mid-file (valid records, then 5 stray bytes) must fail
// with DecodeError, not be silently dropped as EOF.
TEST(MrtStreamReader, TruncatedHeaderMidFileThrows) {
  const auto& all = sample_dump();
  // Find a record boundary roughly halfway into the dump, keep the records
  // before it, and append 5 stray bytes — a header cut short mid-file.
  const std::size_t boundary = mid_boundary(all);
  ASSERT_GT(boundary, 0u);
  ASSERT_LT(boundary, all.size());
  std::vector<std::uint8_t> aligned(all.begin(), all.begin() + static_cast<long>(boundary));
  aligned.insert(aligned.end(), {0x4c, 0x3a, 0x5e, 0x00, 0x00});  // 5 of 12 header bytes

  const std::string path = write_temp(aligned, "stream_trunc_header.mrt");
  MrtStreamReader stream(path);
  EXPECT_THROW(
      {
        while (stream.next()) {
        }
      },
      DecodeError);
  ThreadPool pool(4);
  EXPECT_THROW(stream_file(path, pool), DecodeError);
  std::remove(path.c_str());
}

// A garbage header whose length field overruns the file must fail at that
// record, without over-allocating.
TEST(MrtStreamReader, GarbageLengthFieldThrows) {
  auto bytes = sample_dump();
  // Append a header declaring a body far past EOF.
  const std::vector<std::uint8_t> garbage = {0x00, 0x00, 0x00, 0x01, 0x00, 0x0d,
                                             0x00, 0x02, 0xff, 0xff, 0xff, 0xff};
  bytes.insert(bytes.end(), garbage.begin(), garbage.end());
  const std::string path = write_temp(bytes, "stream_garbage_len.mrt");

  MrtStreamReader stream(path);
  EXPECT_THROW(
      {
        while (stream.next()) {
        }
      },
      DecodeError);
  ThreadPool pool(1);
  EXPECT_THROW(stream_file(path, pool), DecodeError);
  std::remove(path.c_str());
}

// rib_from_stream equals the reference join, route for route, at several
// pool sizes and batch sizes (including batches far smaller than the record
// count, forcing many flushes), from a file and from memory.
TEST(RibFromStream, IdenticalToInMemoryJoin) {
  const auto& bytes = sample_dump();
  const std::string path = write_temp(bytes, "stream_equiv.mrt");
  const ObservedRib reference = test::reference_rib(bytes);
  ASSERT_GT(reference.size(), 0u);

  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{7}, kStreamBatchRecords}) {
      ThreadPool pool(jobs);
      for (const bool from_file : {true, false}) {
        const ObservedRib streamed =
            from_file ? stream_file(path, pool, batch) : stream_memory(bytes, pool, batch);
        const std::string where = "jobs=" + std::to_string(jobs) +
                                  " batch=" + std::to_string(batch) +
                                  (from_file ? " file" : " memory");
        ASSERT_EQ(streamed.size(), reference.size()) << where;
        EXPECT_EQ(streamed.size_of(IpVersion::V4), reference.size_of(IpVersion::V4)) << where;
        EXPECT_EQ(streamed.size_of(IpVersion::V6), reference.size_of(IpVersion::V6)) << where;
        for (std::size_t i = 0; i < reference.size(); ++i) {
          ASSERT_EQ(streamed.routes()[i], reference.routes()[i]) << "route " << i << " " << where;
        }
      }
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------ next_update

/// A file interleaving the TABLE_DUMP_V2 dump with a BGP4MP update stream —
/// the shape `follow` consumes when a collector archive mixes both.
std::vector<std::uint8_t> mixed_dump(std::size_t events) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(21));
  const auto rib = net.collect();
  MrtWriter writer;
  for (const auto& rec : records_from_rib(rib, 1, "stream", 1281052800u)) writer.write(rec);
  gen::UpdateScheduleParams params;
  params.events = events;
  for (const auto& rec : gen::synthesize_updates(rib, params)) writer.write(rec);
  return writer.take();
}

TEST(MrtStreamReaderUpdates, NextUpdateYieldsOnlyBgp4mpFrames) {
  const auto bytes = mixed_dump(25);
  const std::string path = write_temp(bytes, "stream_mixed.mrt");

  // Ground truth from the in-memory reader: which records are updates.
  const auto records = read_all(bytes);
  std::size_t expected_updates = 0;
  for (const auto& rec : records) {
    if (std::holds_alternative<Bgp4mpMessage>(rec.body)) ++expected_updates;
  }
  ASSERT_GT(expected_updates, 0u);
  ASSERT_LT(expected_updates, records.size());  // the RIB frames are really there

  MrtStreamReader stream(path);
  std::size_t yielded = 0;
  while (auto frame = stream.next_update()) {
    const Record decoded =
        decode_record_body(frame->timestamp, frame->type, frame->subtype, frame->body);
    EXPECT_TRUE(std::holds_alternative<Bgp4mpMessage>(decoded.body)) << "frame " << yielded;
    ++yielded;
  }
  EXPECT_EQ(yielded, expected_updates);
  EXPECT_EQ(stream.updates_skipped(), records.size() - expected_updates);
  EXPECT_EQ(stream.records_read(), records.size());
  std::remove(path.c_str());
}

TEST(MrtStreamReaderUpdates, PureRibFileYieldsNoUpdates) {
  const auto& bytes = sample_dump();
  const std::string path = write_temp(bytes, "stream_pure_rib.mrt");
  MrtStreamReader stream(path);
  EXPECT_FALSE(stream.next_update().has_value());
  EXPECT_EQ(stream.updates_skipped(), read_all(bytes).size());
  std::remove(path.c_str());
}

// Framing errors surface through next_update() exactly as through next():
// a header cut short mid-stream throws DecodeError instead of reading EOF.
TEST(MrtStreamReaderUpdates, TruncatedUpdateStreamThrows) {
  auto bytes = mixed_dump(25);
  bytes.resize(bytes.size() - 7);  // cut inside the final update record
  const std::string path = write_temp(bytes, "stream_trunc_update.mrt");
  MrtStreamReader stream(path);
  EXPECT_THROW(
      {
        while (stream.next_update()) {
        }
      },
      DecodeError);
  std::remove(path.c_str());
}

// An orphan RIB record (no PEER_INDEX_TABLE yet) is rejected.
TEST(RibFromStream, RejectsRibBeforePeerTable) {
  RibPrefixRecord rib;
  rib.prefix = Prefix::parse("10.0.0.0/8");
  rib.entries.push_back({});
  MrtWriter w;
  w.write(Record{0, rib});
  const std::string path = write_temp(w.take(), "stream_orphan.mrt");
  ThreadPool pool(1);
  EXPECT_THROW(stream_file(path, pool), DecodeError);
  std::remove(path.c_str());
}

// Truncating anywhere inside the dump must never yield a partial RIB: every
// cut either streams cleanly (cut on a record boundary) or throws.
TEST(RibFromStream, TruncationSweepNeverYieldsPartialRib) {
  const auto& bytes = sample_dump();
  ThreadPool pool(2);
  for (std::size_t len = 1; len < bytes.size(); len += (len < 4096 ? 13 : 991)) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    const std::string path = write_temp(cut, "stream_cut.mrt");
    std::optional<ObservedRib> streamed;
    try {
      streamed = stream_file(path, pool);
    } catch (const DecodeError&) {
      // Expected for mid-record cuts.
    }
    if (streamed.has_value()) {
      // A clean streamed parse is only legal when the cut fell on a record
      // boundary — the reference join must then parse too and agree.  It
      // runs OUTSIDE the try above so a streaming-accepts /
      // reference-rejects divergence fails loudly instead of being
      // swallowed by the catch.
      ObservedRib reference;
      ASSERT_NO_THROW(reference = test::reference_rib(cut)) << "cut at " << len;
      EXPECT_EQ(streamed->routes(), reference.routes()) << "cut at " << len;
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace htor::mrt
