#include "live/observed_rib.hpp"

#include <utility>

#include "bgp/as_path.hpp"
#include "util/error.hpp"

namespace htor::live {

namespace {

/// The announced-route template shared by every prefix an UPDATE carries:
/// path, LocPrf, and communities come from the attribute block once.
struct RouteTemplate {
  std::vector<Asn> as_path;
  std::optional<std::uint32_t> local_pref;
  std::vector<bgp::Community> communities;
};

void require_family(const Prefix& prefix, IpVersion af, const char* field) {
  if (prefix.version() != af) {
    throw DecodeError(std::string("BGP4MP update: ") + field + " carries a " +
                      to_string(prefix.version()) + " prefix");
  }
}

}  // namespace

void ObservedRib::seed(const mrt::ObservedRib& rib) {
  for (const auto& route : rib.routes()) {
    RouteKey key{route.af, route.prefix, route.peer_asn};
    auto [it, inserted] = routes_.insert_or_assign(key, route);
    if (inserted) (route.af == IpVersion::V4 ? v4_count_ : v6_count_)++;
  }
}

ApplyDelta ObservedRib::apply(const mrt::Bgp4mpMessage& msg) {
  ApplyDelta delta;
  const auto* update = std::get_if<bgp::UpdateMessage>(&msg.message);
  if (update == nullptr) {
    stats_.non_updates++;
    return delta;
  }

  // ---- validate everything before the first mutation -------------------
  // (strong exception safety: a DecodeError below must leave the table
  // untouched, so all structural checks run up front).
  const auto& attrs = update->attrs;
  for (const auto& p : update->withdrawn) require_family(p, IpVersion::V4, "withdrawn");
  for (const auto& p : update->nlri) require_family(p, IpVersion::V4, "nlri");
  if (attrs.mp_unreach) {
    for (const auto& p : attrs.mp_unreach->withdrawn) {
      require_family(p, IpVersion::V6, "MP_UNREACH_NLRI");
    }
  }
  if (attrs.mp_reach) {
    for (const auto& p : attrs.mp_reach->nlri) require_family(p, IpVersion::V6, "MP_REACH_NLRI");
  }

  const bool announces = !update->nlri.empty() ||
                         (attrs.mp_reach && !attrs.mp_reach->nlri.empty());
  RouteTemplate tmpl;
  if (announces) {
    tmpl.as_path = attrs.as_path.flatten();
    if (tmpl.as_path.empty()) {
      throw DecodeError("BGP4MP update announces prefixes without an AS_PATH");
    }
    tmpl.local_pref = attrs.local_pref;
    tmpl.communities = attrs.communities;
  }

  // ---- mutate ----------------------------------------------------------
  // Withdraw-then-announce, matching RFC 4271's reading of an UPDATE that
  // lists a prefix in both: the announcement wins.
  for (const auto& p : update->withdrawn) erase(RouteKey{IpVersion::V4, p, msg.peer_as}, delta);
  if (attrs.mp_unreach) {
    for (const auto& p : attrs.mp_unreach->withdrawn) {
      erase(RouteKey{IpVersion::V6, p, msg.peer_as}, delta);
    }
  }

  auto announce = [&](IpVersion af, const Prefix& p) {
    mrt::ObservedRoute route;
    route.af = af;
    route.prefix = p;
    route.peer_asn = msg.peer_as;
    route.as_path = tmpl.as_path;
    route.local_pref = tmpl.local_pref;
    route.communities = tmpl.communities;
    insert(std::move(route), delta);
  };
  for (const auto& p : update->nlri) announce(IpVersion::V4, p);
  if (attrs.mp_reach) {
    for (const auto& p : attrs.mp_reach->nlri) announce(IpVersion::V6, p);
  }

  stats_.messages++;
  return delta;
}

void ObservedRib::insert(mrt::ObservedRoute route, ApplyDelta& delta) {
  const IpVersion af = route.af;
  RouteKey key{route.af, route.prefix, route.peer_asn};
  auto it = routes_.find(key);
  if (it == routes_.end()) {
    delta.added.push_back(route);
    routes_.emplace(std::move(key), std::move(route));
    (af == IpVersion::V4 ? v4_count_ : v6_count_)++;
    stats_.announced++;
    return;
  }
  if (it->second == route) {
    stats_.duplicates++;
    return;
  }
  delta.removed.push_back(std::move(it->second));
  delta.added.push_back(route);
  it->second = std::move(route);
  stats_.replaced++;
}

void ObservedRib::erase(const RouteKey& key, ApplyDelta& delta) {
  auto it = routes_.find(key);
  if (it == routes_.end()) {
    stats_.withdrawn_missing++;
    return;
  }
  delta.removed.push_back(std::move(it->second));
  routes_.erase(it);
  (key.af == IpVersion::V4 ? v4_count_ : v6_count_)--;
  stats_.withdrawn++;
}

mrt::ObservedRib ObservedRib::materialize() const {
  mrt::ObservedRib out;
  for (const auto& [key, route] : routes_) out.add(route);
  return out;
}

}  // namespace htor::live
