#include "rcs/component/package.hpp"

#include <gtest/gtest.h>

#include "rcs/core/repository.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/registration.hpp"
#include "rcs/sim/simulation.hpp"
#include "test_types.hpp"

namespace rcs::comp {
namespace {

struct PackageFixture : ::testing::Test {
  ComponentRegistry registry = testing::make_test_registry();
};

TEST_F(PackageFixture, EntryCodeMatchesDeclaredSize) {
  const auto& info = registry.info("test.echo");
  const auto entry = PackageEntry::for_type(info);
  EXPECT_EQ(entry.code.size(), info.code_size);
  EXPECT_EQ(entry.checksum, hash64(entry.code));
}

TEST_F(PackageFixture, CodeIsDeterministicPerTypeAndDiffersAcrossTypes) {
  const auto a1 = PackageEntry::for_type(registry.info("test.echo"));
  const auto a2 = PackageEntry::for_type(registry.info("test.echo"));
  const auto b = PackageEntry::for_type(registry.info("test.upper"));
  EXPECT_EQ(a1.code, a2.code);
  EXPECT_NE(a1.code, b.code);
}

TEST_F(PackageFixture, PackageEncodeDecodeRoundTrip) {
  ComponentPackage package("transition:pbr->lfr");
  package.add_type(registry, "test.echo");
  package.add_type(registry, "test.upper");

  const auto decoded = ComponentPackage::decode(package.encode());
  EXPECT_EQ(decoded.name(), "transition:pbr->lfr");
  ASSERT_EQ(decoded.entries().size(), 2u);
  EXPECT_EQ(decoded.entries()[0].type_name, "test.echo");
  EXPECT_EQ(decoded.entries()[0].code, package.entries()[0].code);
  EXPECT_EQ(decoded.total_code_size(), package.total_code_size());
}

TEST_F(PackageFixture, LibraryInstallAndQuery) {
  HostLibrary library;
  EXPECT_FALSE(library.installed("test.echo"));
  library.install_type(registry, "test.echo");
  EXPECT_TRUE(library.installed("test.echo"));
  EXPECT_EQ(library.version("test.echo"), 1u);
  EXPECT_EQ(library.version("missing"), 0u);
}

TEST_F(PackageFixture, InstallRejectsCorruptedCode) {
  HostLibrary library;
  auto entry = PackageEntry::for_type(registry.info("test.echo"));
  Bytes corrupted = entry.code;  // artifact buffers are immutable: copy
  corrupted[0] ^= 0xFF;  // bit-flip in transit
  entry.code = SharedBytes(std::move(corrupted));
  const Status s = library.install(entry);
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(library.installed("test.echo"));
}

/// `entry` with its code replaced by a copy whose bit `bit` is flipped.
PackageEntry with_bit_flipped(const PackageEntry& entry, std::size_t bit) {
  Bytes flipped = entry.code;
  flipped[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
  PackageEntry corrupted = entry;
  corrupted.code = SharedBytes(std::move(flipped));
  return corrupted;
}

TEST_F(PackageFixture, InstallRejectsEveryBitFlipOfA1000ByteEntry) {
  ComponentTypeInfo info;
  info.type_name = "test.flip";
  info.code_size = 1000;
  const auto entry = PackageEntry::for_type(info);
  HostLibrary library;
  for (std::size_t bit = 0; bit < 8 * info.code_size; ++bit) {
    ASSERT_EQ(library.install(with_bit_flipped(entry, bit)).code(),
              ErrorCode::kFailedPrecondition)
        << "bit " << bit % 8 << " of byte " << bit / 8;
  }
  EXPECT_FALSE(library.installed("test.flip"));
  EXPECT_TRUE(library.install(entry).is_ok());
}

TEST(PackageVerification, RejectsABitFlipInEveryWordOfTheLargestArtifact) {
  ComponentRegistry registry;
  ftm::register_components(registry);
  const auto& info = registry.info(ftm::kernel::kProtocol);
  for (const auto& name : registry.type_names()) {
    ASSERT_LE(registry.info(name).code_size, info.code_size) << name;
  }
  const auto entry = PackageEntry::for_type(info);
  HostLibrary library;
  for (std::size_t word = 0; word < info.code_size / 8; ++word) {
    // Walks the flipped bit through all 64 positions of a word.
    const std::size_t bit = 64 * word + word % 64;
    ASSERT_EQ(library.install(with_bit_flipped(entry, bit)).code(),
              ErrorCode::kFailedPrecondition)
        << "word " << word;
  }
  EXPECT_FALSE(library.installed(info.type_name));
  EXPECT_TRUE(library.install(entry).is_ok());
}

TEST_F(PackageFixture, EncodeAllocatesExactlyTheEncodedSize) {
  ComponentPackage package("transition:pbr->lfr");
  package.add_type(registry, "test.echo");
  package.add_type(registry, "test.upper");
  const Bytes wire = package.encode();
  EXPECT_EQ(wire.capacity(), wire.size());
  EXPECT_EQ(ComponentPackage::decode(wire).total_code_size(),
            package.total_code_size());
}

TEST_F(PackageFixture, InstallPackageStopsAtFirstFailure) {
  HostLibrary library;
  ComponentPackage package("p");
  package.add_type(registry, "test.echo");
  auto bad = PackageEntry::for_type(registry.info("test.upper"));
  bad.checksum ^= 1;
  package.add(bad);
  package.add_type(registry, "test.other");

  const Status s = library.install(package);
  EXPECT_FALSE(s.is_ok());
  EXPECT_TRUE(library.installed("test.echo"));
  EXPECT_FALSE(library.installed("test.other")) << "install stops at failure";
}

TEST_F(PackageFixture, ReinstallUpgradesVersion) {
  HostLibrary library;
  auto entry = PackageEntry::for_type(registry.info("test.echo"));
  library.install(entry).check();
  entry.version = 3;
  library.install(entry).check();
  EXPECT_EQ(library.version("test.echo"), 3u);
  // Downgrade attempts keep the newer version.
  entry.version = 2;
  library.install(entry).check();
  EXPECT_EQ(library.version("test.echo"), 3u);
}

TEST_F(PackageFixture, RemoveUninstalls) {
  HostLibrary library;
  library.install_type(registry, "test.echo");
  library.remove("test.echo");
  EXPECT_FALSE(library.installed("test.echo"));
}

TEST_F(PackageFixture, InstallAllCoversRegistry) {
  HostLibrary library;
  library.install_all(registry);
  EXPECT_EQ(library.installed_types().size(), registry.type_names().size());
}

TEST_F(PackageFixture, TotalCodeSizeSumsEntries) {
  ComponentPackage package("p");
  package.add_type(registry, "test.echo");
  const auto one = package.total_code_size();
  package.add_type(registry, "test.upper");
  EXPECT_EQ(package.total_code_size(),
            one + registry.info("test.upper").code_size);
}

struct RepositoryArtifacts : PackageFixture {
  sim::Simulation sim{1};
  core::Repository repository{sim.add_host("repository"), &registry};
};

TEST_F(RepositoryArtifacts, MemoizedEntryMatchesAFreshBuild) {
  const PackageEntry& memo = repository.artifact("test.echo");
  const auto fresh = PackageEntry::for_type(registry.info("test.echo"));
  EXPECT_EQ(memo.type_name, fresh.type_name);
  EXPECT_EQ(memo.version, fresh.version);
  EXPECT_EQ(memo.code, fresh.code);
  EXPECT_EQ(memo.checksum, fresh.checksum);
  EXPECT_TRUE(repository.artifact("test.echo").code.shares(memo.code))
      << "one buffer per (type, version)";
  EXPECT_FALSE(repository.artifact("test.upper").code.shares(memo.code));
}

TEST_F(RepositoryArtifacts, CorruptingAReceiversCopyLeavesTheArtifactIntact) {
  const PackageEntry& memo = repository.artifact("test.echo");
  const std::uint64_t checksum = memo.checksum;
  const Bytes original = memo.code;
  ComponentPackage package("p");
  package.add(memo);
  ASSERT_TRUE(package.entries()[0].code.shares(memo.code));
  const Bytes wire = package.encode();

  // The receiver decodes its own buffer, then corrupts it in memory.
  const auto received = ComponentPackage::decode(wire);
  ASSERT_FALSE(received.entries()[0].code.shares(memo.code));
  PackageEntry corrupted = received.entries()[0];
  Bytes flipped = corrupted.code;
  flipped[0] ^= 0xFF;
  corrupted.code = SharedBytes(std::move(flipped));
  HostLibrary receiver;
  EXPECT_EQ(receiver.install(corrupted).code(), ErrorCode::kFailedPrecondition);

  EXPECT_EQ(repository.artifact("test.echo").code.bytes(), original);
  EXPECT_EQ(repository.artifact("test.echo").checksum, checksum);
  EXPECT_EQ(hash64(repository.artifact("test.echo").code), checksum);
  HostLibrary second;
  EXPECT_TRUE(second.install(ComponentPackage::decode(wire)).is_ok());
  EXPECT_TRUE(second.installed("test.echo"));
}

TEST_F(PackageFixture, EntryCountReadsTheHeaderOnly) {
  ComponentPackage package("transition:pbr->lfr");
  EXPECT_EQ(ComponentPackage::entry_count(package.encode()), 0u);
  package.add_type(registry, "test.echo");
  package.add_type(registry, "test.upper");
  EXPECT_EQ(ComponentPackage::entry_count(package.encode()), 2u);
}

}  // namespace
}  // namespace rcs::comp
