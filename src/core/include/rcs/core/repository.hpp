// FTM & Adaptation Repository (paper Fig. 7, the "cold" side).
//
// Lives on its own host and serves, over the simulated network:
//   - full FTM packages: every component of one FTM + its deployment script;
//   - transition packages: only the new bricks of a differential transition
//     + the reconfiguration script that swaps them in (§5.1).
// Packages are generated from the component registry by the ScriptBuilder
// (the off-line "development of transition packages") and cached. Transfer
// time is paid on the wire: package payloads carry the full artifact bytes.
//
// Each artifact is built once per (type, version) and memoized as an
// immutable buffer: cached full and transition packages and every refresh
// package reference that one buffer instead of holding a copy. The bytes are
// shared only within the repository's host; every receiver decodes its own
// copy and verifies its checksum on install.
//
// Message protocol:
//   in:  "repo.fetch"   {txn, kind: "full"|"transition", to, from?, app}
//   out: "repo.package" {txn, ok, name, components: bytes, script, error?}
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "rcs/component/package.hpp"
#include "rcs/component/registry.hpp"
#include "rcs/ftm/app_spec.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/script_builder.hpp"
#include "rcs/sim/host.hpp"

namespace rcs::core {

/// What travels from the repository to the adaptation engine.
struct TransitionPackage {
  std::string name;
  comp::ComponentPackage components;
  std::string script;

  [[nodiscard]] Value to_value() const;
  [[nodiscard]] static TransitionPackage from_value(const Value& value);
};

class Repository {
 public:
  Repository(sim::Host& host,
             const comp::ComponentRegistry* registry = nullptr);

  [[nodiscard]] sim::Host& host() { return host_; }

  /// Build (or fetch from cache) the full package for deploying `config`.
  [[nodiscard]] const TransitionPackage& full_package(
      const ftm::FtmConfig& config, const ftm::AppSpec& app);

  /// Build (or fetch from cache) the differential transition package.
  [[nodiscard]] const TransitionPackage& transition_package(
      const ftm::FtmConfig& from, const ftm::FtmConfig& to,
      const ftm::AppSpec& app);

  /// Package refreshing one slot of `config` with a new build of the same
  /// brick (an FTM *update*, §3.2.1). Built per request and not cached; its
  /// artifact is the memoized one.
  [[nodiscard]] TransitionPackage refresh_package(const ftm::FtmConfig& config,
                                                  const std::string& slot,
                                                  const ftm::AppSpec& app);

  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

  /// The memoized artifact for the registered type's current version.
  [[nodiscard]] const comp::PackageEntry& artifact(const std::string& type_name);

 private:
  void handle_fetch(const Value& request, HostId requester);
  [[nodiscard]] const comp::ComponentRegistry& registry() const;

  sim::Host& host_;
  const comp::ComponentRegistry* registry_;
  std::map<std::string, TransitionPackage> cache_;
  std::map<std::pair<std::string, std::uint32_t>, comp::PackageEntry> artifacts_;
};

}  // namespace rcs::core
