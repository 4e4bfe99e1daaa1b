// Seeded mutation fuzz of the RScript lexer and parser.
//
// Transition packages carry RScript source across the network, so the parser
// reads bytes it did not produce. The corpus is every script the
// ScriptBuilder emits for the Table 3 FTMs on app.kvstore: deployments,
// differential transitions and brick refreshes. Byte flips, overwrites,
// truncations, splices and inserts must leave parse() either returning or
// throwing ScriptException; any other exception escapes the transactional
// interpreter's error handling. A script cut anywhere before its closing '}'
// must be rejected, never run as a shorter script. Every mutant that parses
// also runs against a deployed PBR composite: it commits, or it throws
// ScriptException and leaves the architecture as it was.
#include <gtest/gtest.h>

#include <exception>
#include <map>
#include <string>
#include <vector>

#include "rcs/app/apps.hpp"
#include "rcs/common/error.hpp"
#include "rcs/common/rng.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/registration.hpp"
#include "rcs/ftm/script_builder.hpp"
#include "rcs/script/interpreter.hpp"
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

/// Children with type, state and properties, then every wire.
std::string architecture(const comp::Composite& composite) {
  std::string out;
  for (const auto& name : composite.children()) {
    const comp::Component& child = composite.child(name);
    out += name + ":" + child.type_name() + (child.started() ? "+" : "-") +
           child.properties().to_string() + ";";
  }
  for (const auto& wire : composite.wires()) {
    out += wire.from_component + "." + wire.reference + ">" +
           wire.to_component + "." + wire.service + ";";
  }
  return out;
}

/// parse() must return or throw ScriptException, nothing else; a script
/// that parses must commit or throw ScriptException with the deployed PBR
/// composite unchanged.
void expect_parses_or_rejects(const std::string& source) {
  Script script;
  try {
    script = parse(source);
  } catch (const ScriptException&) {
    return;  // Rejected: fine.
  } catch (const std::exception& e) {
    FAIL() << "non-ScriptException " << e.what() << " on:\n" << source;
  }
  const ftm::ScriptBuilder builder(comp::ComponentRegistry::instance());
  const Value bindings = Value::map()
                             .set("role", "primary")
                             .set("peers", Value::list().push_back(2))
                             .set("master", 1);
  comp::Composite composite("ftm");
  Interpreter::run_source(
      builder.deployment_script(ftm::FtmConfig::pbr(),
                                app::spec_for(app::kKvStore)),
      composite, bindings);
  const std::string before = architecture(composite);
  try {
    (void)Interpreter::run(script, composite, bindings);
  } catch (const ScriptException&) {
    EXPECT_EQ(architecture(composite), before)
        << "rolled back but changed:\n" << source;
  } catch (const std::exception& e) {
    FAIL() << "run threw non-ScriptException " << e.what() << " on:\n"
           << source;
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

/// ExecutionStats set virtual time (ops x script_op), so the counts of every
/// builder script, each run on its deployed source FTM, are pinned.
TEST(ScriptFuzzCorpus, BuilderScriptsKeepTheirOpCounts) {
  (void)corpus();  // registers the component types
  const ftm::ScriptBuilder builder(comp::ComponentRegistry::instance());
  const ftm::AppSpec kv = app::spec_for(app::kKvStore);
  const Value bindings = Value::map()
                             .set("role", "primary")
                             .set("peers", Value::list().push_back(2))
                             .set("master", 1);
  int scripts = 0;
  int ops = 0;
  std::map<std::string, int> by_verb;
  const auto tally = [&](const ExecutionStats& stats) {
    ++scripts;
    ops += stats.ops;
    for (const auto& [verb, count] : stats.by_verb) by_verb[verb] += count;
  };
  const auto& ftms = ftm::FtmConfig::table3_set();
  for (const auto& from : ftms) {
    const std::string deployment = builder.deployment_script(from, kv);
    std::vector<std::string> scripts_from;
    for (const auto& slot : ftm::FtmConfig::slot_names()) {
      scripts_from.push_back(builder.refresh_script(from, slot, kv));
    }
    for (const auto& to : ftms) {
      if (to.name != from.name) {
        scripts_from.push_back(builder.transition_script(from, to, kv));
      }
    }
    {
      comp::Composite composite("ftm");
      tally(Interpreter::run_source(deployment, composite, bindings));
    }
    for (const auto& source : scripts_from) {
      comp::Composite composite("ftm");
      Interpreter::run_source(deployment, composite, bindings);
      tally(Interpreter::run_source(source, composite));
    }
  }
  EXPECT_EQ(scripts, 54);
  EXPECT_EQ(ops, 1083);
  const std::map<std::string, int> expected{
      {"add", 120},  {"remove", 78},   {"set", 57},   {"start", 120},
      {"stop", 78},  {"unwire", 276},  {"wire", 354}};
  EXPECT_EQ(by_verb, expected);
}

/// Every transition and refresh script the builder emits, made to fail right
/// after each of its statements (the splice fsim `script.rollback` uses at
/// the end), leaves the composite it runs on exactly as it was.
TEST(ScriptFuzzCorpus, FailureAfterEveryStatementRollsBack) {
  (void)corpus();  // registers the component types
  const ftm::ScriptBuilder builder(comp::ComponentRegistry::instance());
  const ftm::AppSpec kv = app::spec_for(app::kKvStore);
  const Value bindings = Value::map()
                             .set("role", "primary")
                             .set("peers", Value::list().push_back(2))
                             .set("master", 1);
  const auto& ftms = ftm::FtmConfig::table3_set();
  int runs = 0;
  for (const auto& from : ftms) {
    std::vector<std::string> scripts;
    for (const auto& slot : ftm::FtmConfig::slot_names()) {
      scripts.push_back(builder.refresh_script(from, slot, kv));
    }
    for (const auto& to : ftms) {
      if (to.name != from.name) {
        scripts.push_back(builder.transition_script(from, to, kv));
      }
    }
    comp::Composite composite("ftm");
    Interpreter::run_source(builder.deployment_script(from, kv), composite,
                            bindings);
    const std::string before = architecture(composite);
    for (const auto& source : scripts) {
      // Builder scripts put one statement on each line ending in ';'.
      for (std::size_t end = source.find(";\n"); end != std::string::npos;
           end = source.find(";\n", end + 1)) {
        std::string failing = source;
        failing.insert(end + 2, "require false;\n");
        EXPECT_THROW(Interpreter::run_source(failing, composite),
                     ScriptException)
            << failing;
        EXPECT_EQ(architecture(composite), before) << failing;
        ++runs;
      }
    }
  }
  EXPECT_GT(runs, 300);
}

}  // namespace
}  // namespace rcs::script
