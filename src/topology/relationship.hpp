// AS business relationships and the per-address-family relationship map.
//
// A relationship is always expressed *directionally*: rel(a, b) is the role b
// plays for a.  P2C means "b is a's customer" (a provides transit to b);
// C2P means "b is a's provider"; P2P peers; S2S siblings (same organization).
// The map stores one entry per unordered link and exposes both directions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netbase/asn.hpp"
#include "netbase/ip.hpp"

namespace htor {

enum class Relationship : std::uint8_t {
  P2C,      ///< provider-to-customer: the other AS is my customer
  C2P,      ///< customer-to-provider: the other AS is my provider
  P2P,      ///< settlement-free peering
  S2S,      ///< sibling (same organization)
  Unknown,  ///< not inferred / not covered
};

/// The same link seen from the other endpoint.
Relationship reverse(Relationship rel);

const char* to_string(Relationship rel);

/// True for P2C/C2P (transit) relationships.
inline bool is_transit(Relationship rel) {
  return rel == Relationship::P2C || rel == Relationship::C2P;
}

/// Unordered AS pair, stored canonically with first < second.
struct LinkKey {
  Asn first = 0;
  Asn second = 0;

  LinkKey() = default;
  LinkKey(Asn a, Asn b) : first(a < b ? a : b), second(a < b ? b : a) {}

  friend bool operator==(const LinkKey&, const LinkKey&) = default;
  friend auto operator<=>(const LinkKey&, const LinkKey&) = default;
};

struct LinkKeyHash {
  std::size_t operator()(const LinkKey& k) const {
    return std::hash<std::uint64_t>()(static_cast<std::uint64_t>(k.first) << 32 | k.second);
  }
};

/// Relationship map for one address family.
class RelationshipMap {
 public:
  /// Record rel(a, b); the reverse direction is implied.  Overwrites.
  void set(Asn a, Asn b, Relationship rel);

  /// rel(a, b), Relationship::Unknown when the link is not present.
  Relationship get(Asn a, Asn b) const;

  bool contains(Asn a, Asn b) const { return entries_.count(LinkKey(a, b)) != 0; }
  bool contains(const LinkKey& key) const { return entries_.count(key) != 0; }

  /// Remove the link (both directions) and its adjacency entries.
  void erase(Asn a, Asn b);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Visit each link once as (key, rel-of-key.first-toward-key.second).
  void for_each(const std::function<void(const LinkKey&, Relationship)>& fn) const;

  /// All customers of `asn` (ASes x with rel(asn, x) == P2C).
  std::vector<Asn> customers(Asn asn) const;
  /// All providers of `asn`.
  std::vector<Asn> providers(Asn asn) const;
  /// All peers of `asn`.
  std::vector<Asn> peers(Asn asn) const;

  /// Count of links by relationship type (counted once per link, with the
  /// canonical orientation collapsed: P2C and C2P count as transit).
  struct Counts {
    std::size_t transit = 0;
    std::size_t peering = 0;
    std::size_t sibling = 0;
    std::size_t unknown = 0;
  };
  Counts counts() const;

 private:
  // Value is rel(key.first -> key.second).
  std::unordered_map<LinkKey, Relationship, LinkKeyHash> entries_;
  // Secondary index for customers()/providers()/peers().
  std::unordered_map<Asn, std::vector<Asn>> adjacency_;

  friend class RelationshipMapBuilderAccess;
  void index_add(Asn a, Asn b);
  void index_remove(Asn a, Asn b);
};

}  // namespace htor
