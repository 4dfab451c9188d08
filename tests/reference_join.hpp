// Test-side reference for the MRT record -> RIB join: decode the whole
// buffer with mrt::read_all, then join every RIB record, one after another,
// against the PEER_INDEX_TABLE most recently seen.  It shares no batching,
// sharding or peer-table carrying with mrt::rib_from_stream, which must give
// the same RIB (or reject the same input) at every pool and batch size.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "util/error.hpp"

namespace htor::test {

/// The RIB `bytes` holds, or DecodeError when any record is malformed, a RIB
/// record precedes every PEER_INDEX_TABLE, or an entry's peer index is out
/// of range.
inline mrt::ObservedRib reference_rib(std::span<const std::uint8_t> bytes) {
  const std::vector<mrt::Record> records = mrt::read_all(bytes);
  mrt::ObservedRib rib;
  const mrt::PeerIndexTable* peers = nullptr;
  for (const auto& record : records) {
    if (const auto* pit = std::get_if<mrt::PeerIndexTable>(&record.body)) {
      peers = pit;
      continue;
    }
    const auto* rib_rec = std::get_if<mrt::RibPrefixRecord>(&record.body);
    if (rib_rec == nullptr) continue;  // BGP4MP / raw records carry no RIB state
    if (peers == nullptr) throw DecodeError("RIB record before any PEER_INDEX_TABLE");
    std::vector<mrt::ObservedRoute> routes;
    mrt::join_rib_record(*rib_rec, *peers, routes);
    rib.append(std::move(routes));
  }
  return rib;
}

}  // namespace htor::test
