// Seeded byte-mutation fuzzing of the spec front end: every committed
// specs/*.json is mutated many times and each mutant goes through
// parse_json -> parse_scenario or parse_sweep (-> expand_sweep when the grid
// is small).  Malformed input must be rejected with std::invalid_argument —
// any other exception, a crash or a sanitizer report is a bug.  The seed
// and mutant count are fixed, so every run feeds the same inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "abft/scenario/scenario.hpp"
#include "abft/sweep/sweep.hpp"
#include "abft/util/json.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;

constexpr std::uint64_t kSeed = 0xf022ed5eedULL;
constexpr int kMutantsPerFile = 1000;
constexpr std::size_t kMaxExpandedRuns = 1000;

/// Tokens spliced into mutants: JSON structure plus the numbers and
/// literals that sit on validation edges (int range, 2^53, huge, negative).
const char* const kTokens[] = {
    "{",    "}",     "[",     "]",       "\"",         ",",    ":",    "0",  "-1",
    "1e308", "-1e308", "2.5", "1e12",    "4294967296", "9007199254740993",  "null",
    "true", "[]",    "{}",    "\"x\"",   "\"\\u0000\"", "\"\\ud800\"", "1000000", "nan"};

std::vector<std::filesystem::path> corpus() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(ABFT_SPEC_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One to three random edits: overwrite a byte, delete a span, splice in a
/// token, or copy a span elsewhere.
std::string mutate(std::string text, util::Rng& rng) {
  const auto edits = 1 + rng.uniform_index(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const auto at = rng.uniform_index(text.size() + 1);
    switch (rng.uniform_index(4)) {
      case 0:
        if (at < text.size()) text[at] = static_cast<char>(rng.uniform_index(256));
        break;
      case 1:
        text.erase(at, 1 + rng.uniform_index(8));
        break;
      case 2:
        text.insert(at, kTokens[rng.uniform_index(std::size(kTokens))]);
        break;
      default: {
        const auto from = rng.uniform_index(text.size() + 1);
        text.insert(at, text.substr(from, 1 + rng.uniform_index(32)));
      }
    }
  }
  return text;
}

std::size_t grid_size(const sweep::SweepSpec& spec) {
  std::size_t total = 1;
  for (const std::size_t n :
       {spec.aggregator.size(), spec.mode.size(), spec.precision.size(), spec.f.size(),
        spec.shards.size(), spec.quorum.size(), spec.staleness_cap.size(), spec.seed.size(),
        spec.drop_probability.size(), spec.participation.size(),
        spec.straggler_probability.size(), spec.faults.size(), spec.variants.size()}) {
    total *= std::max<std::size_t>(n, 1);
    if (total > kMaxExpandedRuns) break;
  }
  return total;
}

/// Feeds one document through the front end; invalid input may only
/// surface as std::invalid_argument.
void parse_spec(const std::string& text) {
  const auto json = util::parse_json(text);
  if (!sweep::is_sweep_json(json)) {
    (void)scenario::parse_scenario(json);
    return;
  }
  const auto spec = sweep::parse_sweep(json);
  if (grid_size(spec) <= kMaxExpandedRuns) (void)sweep::expand_sweep(spec);
}

TEST(FuzzParsers, MutatedSpecsOnlyThrowInvalidArgument) {
  const auto files = corpus();
  ASSERT_FALSE(files.empty());
  util::Rng rng(kSeed);
  int accepted = 0;
  int rejected = 0;
  for (const auto& file : files) {
    const std::string original = read_file(file);
    for (int i = 0; i < kMutantsPerFile; ++i) {
      const std::string mutant = mutate(original, rng);
      try {
        parse_spec(mutant);
        ++accepted;
      } catch (const std::invalid_argument&) {
        ++rejected;
      } catch (const std::exception& error) {
        ADD_FAILURE() << file.filename() << " mutant " << i << " threw a non-invalid_argument "
                      << "exception: " << error.what() << "\n" << mutant;
      }
    }
  }
  // Both outcomes must occur, or the mutator is not exercising the parsers.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// Keys of the removed pre-reduction layer are not silently ignored: the
// front end rejects each with std::invalid_argument naming it.
TEST(FuzzParsers, RemovedReductionKeysAreRejectedByName) {
  const struct {
    const char* text;
    const char* key;
  } cases[] = {
      {R"({"aggregator": {"rule": "cwtm", "reduction": {"coreset": {"size": 8}}}})",
       "\"reduction\""},
      {R"({"base": {}, "sweep": {"coreset_size": [8]}})", "\"coreset_size\""},
      {R"({"base": {}, "sweep": {"reduction_kind": ["sample"]}})", "\"reduction_kind\""},
  };
  for (const auto& c : cases) {
    try {
      parse_spec(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(c.key), std::string::npos) << error.what();
    }
  }
}

}  // namespace
