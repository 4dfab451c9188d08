// Unit tests for the MRT codec: record round trips, raw passthrough, file
// I/O, and the RIB view join in both directions.
#include <gtest/gtest.h>

#include <cstdio>

#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "util/bytes.hpp"

namespace htor::mrt {
namespace {

Record round_trip(const Record& in) {
  MrtWriter w;
  w.write(in);
  MrtStreamReader reader(w.data());
  auto out = reader.next();
  EXPECT_TRUE(out.has_value());
  EXPECT_FALSE(reader.next().has_value());
  return decode_record_body(out->timestamp, out->type, out->subtype, out->body);
}

PeerIndexTable sample_pit() {
  PeerIndexTable pit;
  pit.collector_bgp_id = 0x0a0b0c0d;
  pit.view_name = "test-view";
  pit.peers.push_back({0x01010101, IpAddress::parse("10.0.0.1"), 64500});
  pit.peers.push_back({0x02020202, IpAddress::parse("2001:db8::2"), 3356});
  pit.peers.push_back({0x03030303, IpAddress::parse("10.0.0.3"), 4200000000u});  // AS4
  return pit;
}

TEST(Mrt, PeerIndexTableRoundTrip) {
  const Record in{1281052800u, sample_pit()};
  const Record out = round_trip(in);
  EXPECT_EQ(out, in);
}

TEST(Mrt, RibV4RoundTrip) {
  RibPrefixRecord rib;
  rib.sequence = 7;
  rib.prefix = Prefix::parse("192.0.2.0/24");
  RibEntry entry;
  entry.peer_index = 1;
  entry.originated_time = 1000;
  entry.attrs.origin = bgp::Origin::Igp;
  entry.attrs.as_path = bgp::AsPath::sequence({64500, 3356, 20940});
  entry.attrs.next_hop = IpAddress::parse("10.0.0.1");
  entry.attrs.communities = {bgp::Community(3356, 100)};
  rib.entries.push_back(entry);
  const Record out = round_trip(Record{123, rib});
  EXPECT_EQ(std::get<RibPrefixRecord>(out.body), rib);
}

TEST(Mrt, RibV6RoundTrip) {
  RibPrefixRecord rib;
  rib.prefix = Prefix::parse("2001:db8::/32");
  RibEntry entry;
  entry.attrs.as_path = bgp::AsPath::sequence({1, 2});
  entry.attrs.local_pref = 200;
  bgp::MpReachNlri mp;
  mp.next_hops = {IpAddress::parse("2001:db8::1")};
  entry.attrs.mp_reach = mp;
  rib.entries.push_back(entry);
  const Record out = round_trip(Record{0, rib});
  const auto& got = std::get<RibPrefixRecord>(out.body);
  EXPECT_EQ(got, rib);
}

TEST(Mrt, Bgp4mpMessageRoundTrip) {
  Bgp4mpMessage msg;
  msg.peer_as = 4200000001u;
  msg.local_as = 64500;
  msg.interface_index = 3;
  msg.peer_ip = IpAddress::parse("10.0.0.1");
  msg.local_ip = IpAddress::parse("10.0.0.2");
  msg.message = bgp::KeepaliveMessage{};
  const Record out = round_trip(Record{55, msg});
  EXPECT_EQ(std::get<Bgp4mpMessage>(out.body), msg);
}

TEST(Mrt, Bgp4mpIpv6SessionRoundTrip) {
  Bgp4mpMessage msg;
  msg.peer_as = 1;
  msg.local_as = 2;
  msg.peer_ip = IpAddress::parse("2001:db8::1");
  msg.local_ip = IpAddress::parse("2001:db8::2");
  msg.message = bgp::KeepaliveMessage{};
  const Record out = round_trip(Record{55, msg});
  EXPECT_EQ(std::get<Bgp4mpMessage>(out.body).peer_ip.version(), IpVersion::V6);
}

TEST(Mrt, RawRecordPassthrough) {
  RawRecord raw;
  raw.type = 48;     // TABLE_DUMP (legacy), unmodelled
  raw.subtype = 1;
  raw.payload = {9, 8, 7};
  const Record out = round_trip(Record{1, raw});
  EXPECT_EQ(std::get<RawRecord>(out.body), raw);
}

TEST(Mrt, TruncatedRecordThrows) {
  MrtWriter w;
  w.write(Record{1, sample_pit()});
  auto bytes = w.take();
  bytes.resize(bytes.size() - 3);
  MrtStreamReader reader(bytes);
  EXPECT_THROW(reader.next(), DecodeError);
}

TEST(Mrt, SaveAndLoadFile) {
  MrtWriter w;
  w.write(Record{1, sample_pit()});
  const std::string path = ::testing::TempDir() + "/htor_test.mrt";
  w.save(path);
  const auto data = load_bytes(path);
  EXPECT_EQ(data, w.data());
  const auto records = read_all(data);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<PeerIndexTable>(records[0].body), sample_pit());
  std::remove(path.c_str());
  EXPECT_THROW(MrtStreamReader("/nonexistent/nope.mrt"), Error);
}

// ---- RIB view -----------------------------------------------------------

ObservedRib sample_rib() {
  ObservedRib rib;
  ObservedRoute r4;
  r4.af = IpVersion::V4;
  r4.prefix = Prefix::parse("10.1.0.0/24");
  r4.peer_asn = 64500;
  r4.as_path = {64500, 3356, 100};
  r4.local_pref = 120;
  r4.communities = {bgp::Community(3356, 100)};
  rib.add(r4);

  ObservedRoute r6;
  r6.af = IpVersion::V6;
  r6.prefix = Prefix::parse("2001:db8:64::/48");
  r6.peer_asn = 3356;
  r6.as_path = {3356, 100};
  r6.communities = {bgp::Community(100, 200)};
  rib.add(r6);
  return rib;
}

TEST(RibView, CountsByFamily) {
  const auto rib = sample_rib();
  EXPECT_EQ(rib.size(), 2u);
  EXPECT_EQ(rib.size_of(IpVersion::V4), 1u);
  EXPECT_EQ(rib.size_of(IpVersion::V6), 1u);
  EXPECT_EQ(rib.routes_of(IpVersion::V6).size(), 1u);
  EXPECT_EQ(rib.routes_of(IpVersion::V6)[0]->origin_asn(), 100u);
}

/// `records` written as MRT bytes and ingested on an inline pool.
ObservedRib join(const std::vector<Record>& records) {
  MrtWriter w;
  for (const auto& rec : records) w.write(rec);
  MrtStreamReader stream(w.data());
  ThreadPool pool(1);
  return rib_from_stream(stream, pool);
}

TEST(RibView, MrtRoundTripPreservesRoutes) {
  const auto rib = sample_rib();
  const auto records = records_from_rib(rib, 0xc0ffee00u, "rt", 1281052800u);

  // Serialize to actual bytes and back.
  const auto out = join(records);

  ASSERT_EQ(out.size(), rib.size());
  // Order may differ (grouped by prefix); compare as sets.
  for (const auto& want : rib.routes()) {
    bool found = false;
    for (const auto& got : out.routes()) {
      if (got == want) found = true;
    }
    EXPECT_TRUE(found) << "route for " << want.prefix.to_string() << " lost in round trip";
  }
}

TEST(RibView, RejectsRibBeforePeerTable) {
  RibPrefixRecord rib;
  rib.prefix = Prefix::parse("10.0.0.0/8");
  rib.entries.push_back({});
  EXPECT_THROW(join({Record{0, rib}}), DecodeError);
}

TEST(RibView, RejectsOutOfRangePeerIndex) {
  PeerIndexTable pit;  // no peers
  RibPrefixRecord rib;
  rib.prefix = Prefix::parse("10.0.0.0/8");
  RibEntry entry;
  entry.peer_index = 4;
  rib.entries.push_back(entry);
  EXPECT_THROW(join({Record{0, pit}, Record{0, rib}}), DecodeError);
}

TEST(RibView, RejectsMoreThan16BitPeers) {
  // Regression: 65536 distinct vantage peers cannot be addressed by the
  // format's 16-bit peer index — the serializer used to truncate the index
  // silently; it must refuse with a reasoned error instead.
  ObservedRib rib;
  for (std::uint32_t asn = 1; asn <= 65536; ++asn) {
    ObservedRoute r;
    r.af = IpVersion::V4;
    r.prefix = Prefix::parse("10.0.0.0/8");
    r.peer_asn = asn;
    r.as_path = {asn};
    rib.add(std::move(r));
  }
  EXPECT_THROW(records_from_rib(rib, 1, "overflow", 0), InvalidArgument);
}

TEST(RibView, FlattensAsSets) {
  PeerIndexTable pit;
  pit.peers.push_back({1, IpAddress::parse("10.0.0.1"), 64500});
  RibPrefixRecord rib;
  rib.prefix = Prefix::parse("10.0.0.0/8");
  RibEntry entry;
  entry.peer_index = 0;
  bgp::AsPath path;
  path.add_segment({bgp::AsSegmentType::Sequence, {64500}});
  path.add_segment({bgp::AsSegmentType::Set, {1, 2}});
  entry.attrs.as_path = path;
  rib.entries.push_back(entry);
  const auto out = join({Record{0, pit}, Record{0, rib}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.routes()[0].as_path, (std::vector<Asn>{64500, 1, 2}));
}

}  // namespace
}  // namespace htor::mrt
