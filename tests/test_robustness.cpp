// Failure-injection tests: the wire decoders (BGP messages, path attributes,
// MRT records) must survive arbitrary truncation and byte corruption of
// valid inputs — either parsing successfully or throwing DecodeError, never
// crashing or looping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "bgp/message.hpp"
#include "core/pipeline.hpp"
#include "gen/internet.hpp"
#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace htor {
namespace {

std::vector<std::uint8_t> valid_update_bytes() {
  bgp::PathAttributes attrs;
  attrs.origin = bgp::Origin::Igp;
  attrs.as_path = bgp::AsPath::sequence({64500, 3356, 1299});
  attrs.local_pref = 120;
  attrs.communities = {bgp::Community(3356, 100), bgp::Community(1299, 50)};
  const auto update = bgp::make_ipv6_update(attrs, IpAddress::parse("2001:db8::1"),
                                            {Prefix::parse("2001:db8:77::/48")});
  return bgp::encode_message(update);
}

/// A PEER_INDEX_TABLE and the RIB records after it: enough structure, small
/// enough to sweep.
std::vector<mrt::Record> valid_mrt_records() {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(17));
  auto records = mrt::records_from_rib(net.collect(), 1, "rb", 0);
  records.resize(std::min<std::size_t>(records.size(), 40));
  return records;
}

std::vector<std::uint8_t> encode(const std::vector<mrt::Record>& records) {
  mrt::MrtWriter writer;
  for (const auto& rec : records) writer.write(rec);
  return writer.take();
}

std::vector<std::uint8_t> valid_mrt_bytes() { return encode(valid_mrt_records()); }

/// The one ingest path over an in-memory buffer.
mrt::ObservedRib ingest(const std::vector<std::uint8_t>& bytes, ThreadPool& pool) {
  mrt::MrtStreamReader stream(bytes);
  return mrt::rib_from_stream(stream, pool);
}

/// Write `bytes` to a temp file named `name`; returns its path.
std::string write_temp(const std::vector<std::uint8_t>& bytes, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  return path;
}

// Truncation at every possible length: parse or throw, never hang/crash.
TEST(Robustness, BgpMessageTruncationSweep) {
  const auto bytes = valid_update_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    ByteReader r(cut);
    EXPECT_THROW(bgp::decode_message(r), DecodeError) << "at length " << len;
  }
  // The untruncated message still parses.
  ByteReader r(bytes);
  EXPECT_NO_THROW(bgp::decode_message(r));
}

TEST(Robustness, MrtTruncationSweep) {
  const auto bytes = valid_mrt_bytes();
  // Sweep cut points across the first few records densely, then stride.
  for (std::size_t len = 1; len < bytes.size(); len += (len < 4096 ? 7 : 997)) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    try {
      (void)mrt::read_all(cut);
      // Clean EOF is acceptable when the cut fell on a record boundary.
    } catch (const DecodeError&) {
      // Expected for mid-record cuts.
    }
  }
}

// Record *header* corruption mid-file (the earlier sweeps mostly land in
// bodies): the reader and the ingest over it must raise a clean DecodeError,
// from memory and from a file — never silently stop or hand back a partial
// RIB.
TEST(Robustness, TruncatedHeaderMidFileThrows) {
  auto bytes = valid_mrt_bytes();
  // 7 stray bytes after the last valid record: a header cut short.
  bytes.insert(bytes.end(), {0x12, 0x34, 0x56, 0x78, 0x00, 0x0d, 0x00});

  mrt::MrtStreamReader reader(bytes);
  EXPECT_THROW(
      {
        while (reader.next()) {
        }
      },
      DecodeError);
  ThreadPool pool(1);
  EXPECT_THROW(ingest(bytes, pool), DecodeError);

  // Same bytes on disk.
  const std::string path = write_temp(bytes, "trunc_header.mrt");
  EXPECT_THROW(core::load_rib(path, pool), DecodeError);
  std::remove(path.c_str());
}

TEST(Robustness, GarbageHeaderLengthMidFileThrows) {
  auto bytes = valid_mrt_bytes();
  // A structurally complete header whose length field points far past EOF.
  bytes.insert(bytes.end(),
               {0x00, 0x00, 0x00, 0x01, 0x00, 0x0d, 0x00, 0x02, 0xff, 0xff, 0xff, 0xfe});

  mrt::MrtStreamReader reader(bytes);
  EXPECT_THROW(
      {
        while (reader.next()) {
        }
      },
      DecodeError);
  ThreadPool pool(1);
  EXPECT_THROW(ingest(bytes, pool), DecodeError);

  const std::string path = write_temp(bytes, "garbage_header.mrt");
  EXPECT_THROW(core::load_rib(path, pool), DecodeError);
  std::remove(path.c_str());
}

// Regression for the census fail-fast path: a RIB dump truncated mid-record
// must abort the ingest with DecodeError instead of yielding a partially
// parsed RIB.  This is the exact code path `hybridtor census` runs on its
// <rib.mrt> argument, including the on-disk round trip.
TEST(Robustness, TruncatedRibFileFailsFast) {
  const auto bytes = valid_mrt_bytes();
  const std::string path = ::testing::TempDir() + "/truncated_rib.mrt";

  // A cut inside the second record's body: the MRT framing (12-byte header
  // plus declared length) makes the truncation detectable.
  const std::size_t cut = bytes.size() - 5;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(cut));
  }

  ASSERT_EQ(std::filesystem::file_size(path), cut);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(jobs);
    EXPECT_THROW(core::load_rib(path, pool), DecodeError) << jobs;
  }

  std::remove(path.c_str());
}

/// `bytes` with 3 bytes appended to the body of the first record of
/// TABLE_DUMP_V2 `subtype`, its length field fixed up to match: the framing
/// stays valid, the body carries leftovers its decoder does not consume.
std::vector<std::uint8_t> with_trailing_body_bytes(std::vector<std::uint8_t> bytes,
                                                   std::uint16_t subtype) {
  const auto be = [&bytes](std::size_t at, std::size_t n) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = v << 8 | bytes[at + i];
    return v;
  };
  std::size_t at = 0;
  while (be(at + 4, 2) != 13 || be(at + 6, 2) != subtype) {
    at += 12 + be(at + 8, 4);
    if (at >= bytes.size()) throw std::logic_error("no record of the wanted subtype");
  }
  const std::uint32_t length = be(at + 8, 4) + 3;
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[at + 8 + i] = static_cast<std::uint8_t>(length >> (24 - 8 * i));
  }
  bytes.insert(bytes.begin() + static_cast<long>(at + 12 + length - 3), {0xde, 0xad, 0xbe});
  return bytes;
}

// Regression: PEER_INDEX_TABLE and RIB bodies with bytes left over after the
// last entry were accepted (the route count still came out right).  The
// ingest must reject them, naming the record type and the leftovers.
TEST(Robustness, TrailingBytesInTableDumpBodiesRejected) {
  const std::pair<std::uint16_t, const char*> cases[] = {
      {static_cast<std::uint16_t>(mrt::TableDumpV2Subtype::PeerIndexTable), "PEER_INDEX_TABLE"},
      {static_cast<std::uint16_t>(mrt::TableDumpV2Subtype::RibIpv4Unicast), "RIB_IPV4_UNICAST"},
  };
  for (const auto& [subtype, name] : cases) {
    const auto bytes = with_trailing_body_bytes(valid_mrt_bytes(), subtype);
    const std::string path = write_temp(bytes, std::string("trailing_") + name + ".mrt");
    ThreadPool pool(1);
    try {
      (void)core::load_rib(path, pool);
      ADD_FAILURE() << name << " with trailing bytes accepted";
    } catch (const DecodeError& e) {
      const std::string reason = e.what();
      EXPECT_NE(reason.find(name), std::string::npos) << reason;
      EXPECT_NE(reason.find("3 left over"), std::string::npos) << reason;
    }
    std::remove(path.c_str());
  }
}

/// htor_ingest_decode_errors_total summed over every reason label.
std::uint64_t decode_errors_total() {
  constexpr std::string_view kFamily = "htor_ingest_decode_errors_total{";
  std::uint64_t total = 0;
  std::istringstream exposition(obs::MetricsRegistry::global().render_prometheus());
  for (std::string line; std::getline(exposition, line);) {
    if (line.rfind(kFamily, 0) == 0) total += std::stoull(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

// Regression: only a malformed RIB body moved htor_ingest_decode_errors_total
// (once per failed decode shard, so two bad records could count twice); a
// malformed PEER_INDEX_TABLE, a RIB record before any PEER_INDEX_TABLE and an
// out-of-range peer index aborted the ingest without a trace.  Every
// rejection now counts exactly once, under its reason, framing included.
TEST(Robustness, EveryIngestRejectionCountedOnce) {
  struct Case {
    const char* what;
    const char* reason;
    std::vector<std::uint8_t> bytes;
  };
  const auto records = valid_mrt_records();
  ASSERT_EQ(records.size(), 40u);
  std::vector<Case> cases;
  {
    // Two RIB records whose bodies do not decode, far enough apart to land
    // in different decode shards.
    auto bad = records;
    bad[5].body = mrt::RawRecord{13, 2, {0xde, 0xad}};
    bad[30].body = mrt::RawRecord{13, 2, {0xbe, 0xef}};
    cases.push_back({"malformed RIB bodies", "record_body", encode(bad)});
  }
  cases.push_back(
      {"malformed PEER_INDEX_TABLE", "record_body",
       with_trailing_body_bytes(valid_mrt_bytes(),
                                static_cast<std::uint16_t>(mrt::TableDumpV2Subtype::PeerIndexTable))});
  cases.push_back(
      {"RIB record before any PEER_INDEX_TABLE", "rib_before_peer_table", encode({records[1]})});
  {
    auto bad = records;
    std::get<mrt::RibPrefixRecord>(bad[3].body).entries.at(0).peer_index = 60000;
    cases.push_back({"peer index out of range", "peer_index_out_of_range", encode(bad)});
  }

  {
    auto bad = valid_mrt_bytes();
    bad.insert(bad.end(), {0x4c, 0x3a, 0x5e, 0x00, 0x00});  // 5 of 12 header bytes
    cases.push_back({"header cut short", "truncated_header", bad});
  }
  {
    // A length field far past the end of the input.
    auto bad = valid_mrt_bytes();
    bad.insert(bad.end(),
               {0x00, 0x00, 0x00, 0x01, 0x00, 0x0d, 0x00, 0x02, 0xff, 0xff, 0xff, 0xff});
    cases.push_back({"garbage length field", "truncated_body", bad});
  }

  auto& registry = obs::MetricsRegistry::global();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(jobs);
    for (const Case& c : cases) {
      const obs::Labels labels = {{"reason", c.reason}};
      const std::uint64_t total_before = decode_errors_total();
      const std::uint64_t reason_before =
          registry.counter_value("htor_ingest_decode_errors_total", labels);
      EXPECT_THROW(ingest(c.bytes, pool), DecodeError) << c.what;
      EXPECT_EQ(decode_errors_total() - total_before, 1u) << c.what << " jobs=" << jobs;
      EXPECT_EQ(registry.counter_value("htor_ingest_decode_errors_total", labels) - reason_before,
                1u)
          << c.what << " jobs=" << jobs;
    }
  }
}

// Single-byte corruption: every outcome must be a clean parse or DecodeError.
class BgpCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BgpCorruption, SingleByteFlips) {
  const auto original = valid_update_bytes();
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.index(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    ByteReader r(bytes);
    try {
      const auto msg = bgp::decode_message(r);
      (void)msg;  // a benign flip (e.g. inside an ASN) may still parse
    } catch (const DecodeError&) {
    } catch (const InvalidArgument&) {
      // some flips hit semantic validation instead of framing
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpCorruption, ::testing::Values(1, 2, 3));

class MrtCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MrtCorruption, SingleByteFlips) {
  const auto original = valid_mrt_bytes();
  Rng rng(GetParam());
  for (int trial = 0; trial < 120; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.index(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    mrt::MrtStreamReader reader(bytes);
    try {
      std::size_t records = 0;
      while (const auto frame = reader.next()) {
        (void)mrt::decode_record_body(frame->timestamp, frame->type, frame->subtype, frame->body);
        // Defensive bound: corruption must not manufacture unbounded output.
        ASSERT_LT(++records, 100000u);
      }
    } catch (const DecodeError&) {
    } catch (const InvalidArgument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrtCorruption, ::testing::Values(4, 5, 6));

// The RIB join layer on top must show the same discipline.
TEST(Robustness, RibJoinOnCorruptedDumps) {
  const auto original = valid_mrt_bytes();
  Rng rng(9);
  for (int trial = 0; trial < 60; ++trial) {
    auto bytes = original;
    for (int flips = 0; flips < 4; ++flips) {
      bytes[rng.index(bytes.size())] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    }
    try {
      ThreadPool pool(1);
      const auto rib = ingest(bytes, pool);
      (void)rib;
    } catch (const DecodeError&) {
    } catch (const InvalidArgument&) {
    }
  }
}

// Garbage from nothing: random byte soup must never parse as a full BGP
// message stream without the all-ones marker.
TEST(Robustness, RandomBytesRejected) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> bytes(64);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    bytes[0] = 0xfe;  // guarantee a broken marker
    ByteReader r(bytes);
    EXPECT_THROW(bgp::decode_message(r), DecodeError);
  }
}

}  // namespace
}  // namespace htor
