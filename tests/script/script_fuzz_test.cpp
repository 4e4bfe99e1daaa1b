// Seeded mutation fuzz of the RScript lexer and parser.
//
// Transition packages carry RScript source across the network, so the parser
// reads bytes it did not produce. The corpus is every script the
// ScriptBuilder emits for the Table 3 FTMs on app.kvstore: deployments,
// differential transitions and brick refreshes. Byte flips, overwrites,
// truncations, splices and inserts must leave parse() either returning or
// throwing ScriptException; any other exception escapes the transactional
// interpreter's error handling. A script cut anywhere before its closing '}'
// must be rejected, never run as a shorter script.
#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <vector>

#include "rcs/app/apps.hpp"
#include "rcs/common/error.hpp"
#include "rcs/common/rng.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/registration.hpp"
#include "rcs/ftm/script_builder.hpp"
#include "rcs/script/parser.hpp"

namespace rcs::script {
namespace {

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> scripts = [] {
    ftm::register_components();
    app::register_components();
    const ftm::ScriptBuilder builder(comp::ComponentRegistry::instance());
    const ftm::AppSpec kv = app::spec_for(app::kKvStore);
    const auto& ftms = ftm::FtmConfig::table3_set();
    std::vector<std::string> out;
    for (const auto& config : ftms) {
      out.push_back(builder.deployment_script(config, kv));
      for (const auto& slot : ftm::FtmConfig::slot_names()) {
        out.push_back(builder.refresh_script(config, slot, kv));
      }
      for (const auto& to : ftms) {
        if (to.name != config.name) {
          out.push_back(builder.transition_script(config, to, kv));
        }
      }
    }
    return out;
  }();
  return scripts;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One random mutation of `source`; `donor` feeds splices and inserts.
std::string mutate(Rng& rng, std::string source, const std::string& donor) {
  if (source.empty()) return donor.substr(0, pick(rng, donor.size() + 1));
  const std::size_t at = pick(rng, source.size());
  switch (rng.uniform_int(0, 4)) {
    case 0:  // flip one bit
      source[at] = static_cast<char>(source[at] ^ (1 << rng.uniform_int(0, 7)));
      break;
    case 1:  // overwrite one byte with any value
      source[at] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case 2:  // truncate
      source.resize(at);
      break;
    case 3: {  // splice: replace a range with a range of the donor
      const std::size_t len = pick(rng, source.size() - at + 1);
      const std::size_t from = pick(rng, donor.size());
      source.replace(at, len, donor, from, pick(rng, donor.size() - from + 1));
      break;
    }
    default: {  // insert a donor range or a run of digits
      if (rng.bernoulli(0.5)) {
        const std::size_t from = pick(rng, donor.size());
        source.insert(at, donor, from, 1 + pick(rng, 32));
      } else {
        source.insert(at, std::string(1 + pick(rng, 40), '9'));
      }
      break;
    }
  }
  return source;
}

/// parse() must return or throw ScriptException, nothing else.
void expect_parses_or_rejects(const std::string& source) {
  try {
    (void)parse(source);
  } catch (const ScriptException&) {
    // Rejected: fine.
  } catch (const std::exception& e) {
    FAIL() << "non-ScriptException " << e.what() << " on:\n" << source;
  }
}

TEST(ScriptFuzzCorpus, CoversEveryScriptKindAndParses) {
  // 6 deployments, 6 x 3 refreshes, 6 x 5 transitions.
  ASSERT_EQ(corpus().size(), 6u + 18u + 30u);
  for (const auto& source : corpus()) {
    EXPECT_NO_THROW((void)parse(source)) << source;
  }
}

class ScriptFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ScriptFuzz, MutatedScriptsParseOrThrowScriptException) {
  Rng rng(0x5C21 + GetParam());
  const auto& scripts = corpus();
  for (int i = 0; i < 400; ++i) {
    std::string source = scripts[pick(rng, scripts.size())];
    const auto rounds = rng.uniform_int(1, 3);
    for (int r = 0; r < rounds; ++r) {
      source = mutate(rng, std::move(source), scripts[pick(rng, scripts.size())]);
    }
    expect_parses_or_rejects(source);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScriptFuzz, ::testing::Range(0, 5));

TEST(ScriptFuzzCorpus, EveryPrefixBeforeTheClosingBraceThrows) {
  for (const auto& source : corpus()) {
    ASSERT_EQ(source.rfind("script ", 0), 0u) << source;
    const std::size_t close = source.rfind('}');
    ASSERT_NE(close, std::string::npos);
    for (std::size_t cut = 1; cut <= close; ++cut) {
      EXPECT_THROW((void)parse(source.substr(0, cut)), ScriptException)
          << "prefix of " << cut << " bytes parsed:\n"
          << source.substr(0, cut);
    }
  }
}

}  // namespace
}  // namespace rcs::script
