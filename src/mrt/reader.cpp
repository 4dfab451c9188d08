#include "mrt/reader.hpp"

#include "bgp/nlri.hpp"
#include "mrt/stream_reader.hpp"
#include "util/bytes.hpp"

namespace htor::mrt {

namespace {

PeerIndexTable decode_peer_index_table(ByteReader& r) {
  PeerIndexTable pit;
  pit.collector_bgp_id = r.u32();
  const std::uint16_t name_len = r.u16();
  pit.view_name = r.text(name_len);
  const std::uint16_t count = r.u16();
  pit.peers.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    PeerEntry peer;
    const std::uint8_t type = r.u8();
    peer.bgp_id = r.u32();
    const IpVersion ver = (type & 0x01) ? IpVersion::V6 : IpVersion::V4;
    peer.address = IpAddress(ver, r.bytes(address_bytes(ver)));
    peer.asn = (type & 0x02) ? r.u32() : r.u16();
    pit.peers.push_back(std::move(peer));
  }
  return pit;
}

RibPrefixRecord decode_rib(ByteReader& r, IpVersion version) {
  RibPrefixRecord rib;
  rib.sequence = r.u32();
  rib.prefix = bgp::decode_nlri_prefix(r, version);
  const std::uint16_t count = r.u16();
  rib.entries.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    RibEntry entry;
    entry.peer_index = r.u16();
    entry.originated_time = r.u32();
    const std::uint16_t attr_len = r.u16();
    ByteReader attrs = r.sub(attr_len);
    entry.attrs = bgp::decode_path_attributes(attrs, bgp::MpReachForm::MrtRib);
    rib.entries.push_back(std::move(entry));
  }
  return rib;
}

Bgp4mpMessage decode_bgp4mp(ByteReader& r, bool as4) {
  Bgp4mpMessage msg;
  msg.as4 = as4;
  msg.peer_as = as4 ? r.u32() : r.u16();
  msg.local_as = as4 ? r.u32() : r.u16();
  msg.interface_index = r.u16();
  const std::uint16_t afi = r.u16();
  if (afi != 1 && afi != 2) throw DecodeError("BGP4MP AFI " + std::to_string(afi));
  const IpVersion ver = afi == 1 ? IpVersion::V4 : IpVersion::V6;
  msg.peer_ip = IpAddress(ver, r.bytes(address_bytes(ver)));
  msg.local_ip = IpAddress(ver, r.bytes(address_bytes(ver)));
  msg.message = bgp::decode_message(r);
  if (!r.exhausted()) throw DecodeError("trailing bytes after BGP4MP message");
  return msg;
}

/// A modelled body must be consumed exactly: leftover bytes mean the
/// record's length field and its contents disagree.
void expect_exhausted(const ByteReader& r, const char* record_type) {
  if (!r.exhausted()) {
    throw DecodeError(std::string("trailing bytes after ") + record_type + " record: " +
                      std::to_string(r.remaining()) + " left over");
  }
}

}  // namespace

Record decode_record_body(std::uint32_t timestamp, std::uint16_t type, std::uint16_t subtype,
                          std::span<const std::uint8_t> body_bytes) {
  Record record;
  record.timestamp = timestamp;
  ByteReader body(body_bytes);

  if (type == static_cast<std::uint16_t>(MrtType::TableDumpV2)) {
    switch (static_cast<TableDumpV2Subtype>(subtype)) {
      case TableDumpV2Subtype::PeerIndexTable:
        record.body = decode_peer_index_table(body);
        expect_exhausted(body, "PEER_INDEX_TABLE");
        return record;
      case TableDumpV2Subtype::RibIpv4Unicast:
        record.body = decode_rib(body, IpVersion::V4);
        expect_exhausted(body, "RIB_IPV4_UNICAST");
        return record;
      case TableDumpV2Subtype::RibIpv6Unicast:
        record.body = decode_rib(body, IpVersion::V6);
        expect_exhausted(body, "RIB_IPV6_UNICAST");
        return record;
      default:
        break;  // fall through to raw
    }
  } else if (type == static_cast<std::uint16_t>(MrtType::Bgp4mp)) {
    switch (static_cast<Bgp4mpSubtype>(subtype)) {
      case Bgp4mpSubtype::Message:
        record.body = decode_bgp4mp(body, false);
        return record;
      case Bgp4mpSubtype::MessageAs4:
        record.body = decode_bgp4mp(body, true);
        return record;
      default:
        break;
    }
  }
  RawRecord raw;
  raw.type = type;
  raw.subtype = subtype;
  raw.payload = body.bytes_copy(body.remaining());
  record.body = std::move(raw);
  return record;
}

std::vector<Record> read_all(std::span<const std::uint8_t> data) {
  MrtStreamReader reader(data);
  std::vector<Record> out;
  while (auto raw = reader.next()) {
    out.push_back(decode_record_body(raw->timestamp, raw->type, raw->subtype, raw->body));
  }
  return out;
}

}  // namespace htor::mrt
