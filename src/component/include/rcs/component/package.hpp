// Deployable component packages and per-host type libraries.
//
// The paper's transition packages carry "the new bricks that must be
// integrated into the existing software architecture" plus a script (§5.1).
// A ComponentPackage is the brick half: serialized code artifacts (generated
// from registry metadata, sized by code_size so the simulated network charges
// realistic transfer times) with checksums verified on installation.
// A HostLibrary is the set of types installed on one host; Composite::add
// refuses types the library does not have — this is what forces missing
// bricks to be uploaded before a transition can run.
//
// Artifact bytes are immutable once built, so package entries share them
// within a host: copying an entry or a package copies a pointer, never the
// code. Sharing stops at the simulated wire: decode() gives each receiving
// host its own buffer, and HostLibrary::install verifies the checksum over
// that host's copy on every install.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rcs/common/bytes.hpp"
#include "rcs/common/error.hpp"
#include "rcs/component/registry.hpp"

namespace rcs::comp {

/// Immutable, refcounted byte buffer: a std::shared_ptr<const Bytes> that
/// reads as the bytes it holds. Copies share the buffer; equality compares
/// contents. Changing the bytes means building a new buffer.
class SharedBytes {
 public:
  SharedBytes() = default;
  explicit SharedBytes(Bytes bytes)
      : bytes_(std::make_shared<const Bytes>(std::move(bytes))) {}

  [[nodiscard]] const Bytes& bytes() const { return bytes_ ? *bytes_ : empty(); }
  operator const Bytes&() const { return bytes(); }  // NOLINT: by design
  [[nodiscard]] std::size_t size() const { return bytes().size(); }

  /// True when both hold the very same buffer (not merely equal bytes).
  [[nodiscard]] bool shares(const SharedBytes& other) const {
    return bytes_ == other.bytes_;
  }
  bool operator==(const SharedBytes& other) const { return bytes() == other.bytes(); }

 private:
  static const Bytes& empty() {
    static const Bytes kEmpty;
    return kEmpty;
  }

  std::shared_ptr<const Bytes> bytes_;
};

struct PackageEntry {
  std::string type_name;
  std::uint32_t version{1};
  SharedBytes code;
  std::uint64_t checksum{0};  // hash64(code)

  [[nodiscard]] static PackageEntry for_type(const ComponentTypeInfo& info);
};

class ComponentPackage {
 public:
  ComponentPackage() = default;
  explicit ComponentPackage(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<PackageEntry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t total_code_size() const;

  void add(PackageEntry entry) { entries_.push_back(std::move(entry)); }
  /// Add the artifact for a registered type.
  void add_type(const ComponentRegistry& registry, const std::string& type_name);

  [[nodiscard]] Bytes encode() const;
  /// A package with its own copy of every artifact (one host's receive).
  [[nodiscard]] static ComponentPackage decode(const Bytes& data);
  /// Number of entries in an encoded package, read from its header without
  /// decoding any artifact.
  [[nodiscard]] static std::size_t entry_count(const Bytes& data);

 private:
  std::string name_;
  std::vector<PackageEntry> entries_;
};

class HostLibrary {
 public:
  /// Install one artifact; verifies the checksum (a corrupted upload is
  /// rejected with Status kFailedPrecondition). Reinstalling the same type
  /// upgrades the stored version.
  Status install(const PackageEntry& entry);
  /// Install everything in a package; stops at the first failure.
  Status install(const ComponentPackage& package);

  void install_type(const ComponentRegistry& registry, const std::string& type_name);
  /// Convenience for bootstrapping: install every registered type.
  void install_all(const ComponentRegistry& registry);

  [[nodiscard]] bool installed(const std::string& type_name) const;
  [[nodiscard]] std::uint32_t version(const std::string& type_name) const;
  [[nodiscard]] std::vector<std::string> installed_types() const;
  void remove(const std::string& type_name);

 private:
  std::map<std::string, std::uint32_t> versions_;
};

}  // namespace rcs::comp
