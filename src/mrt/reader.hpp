// MRT record decoding.  decode_record_body() turns one framed record body
// into a Record; it is the per-record core of the one ingest path
// (mrt::MrtStreamReader frames, rib_from_stream() decodes and joins in
// parallel batches).  read_all() is that same framer plus this decoder over
// a whole buffer, for callers that want every Record of a small input
// (tests, fuzzers, the record-level examples).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mrt/record.hpp"

namespace htor::mrt {

/// Decode one record body given the common-header fields that frame it.
/// Modelled (type, subtype) pairs are fully validated and throw DecodeError
/// on malformed bytes; unmodelled ones come back as RawRecord.
Record decode_record_body(std::uint32_t timestamp, std::uint16_t type, std::uint16_t subtype,
                          std::span<const std::uint8_t> body);

/// Frame and decode every record of a buffer.  Throws DecodeError on the
/// first malformed record.
std::vector<Record> read_all(std::span<const std::uint8_t> data);

}  // namespace htor::mrt
