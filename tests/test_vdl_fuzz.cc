// Robustness property: the VDL parser (and the XML wire parser) must
// never crash, hang, or accept-and-corrupt on mangled input — every
// outcome is either a clean parse or a clean ParseError. Seeded random
// mutations of valid corpora keep the test deterministic.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "vdl/parser.h"
#include "vdl/printer.h"
#include "vdl/xml.h"
#include "vdl/xml_parse.h"

namespace vdg {
namespace {

constexpr const char* kCorpus[] = {
    R"(
TR t1( output a2, input a1, none env="100000", none pa="500" ) {
  argument parg = "-p "${none:pa};
  argument stdout = ${output:a2};
  exec = "/usr/bin/app3";
  env.MAXMEM = ${none:env};
}
DV d1->example1::t1( a2=@{output:"f2"}, a1=@{input:"f1"}, pa="600" );
)",
    R"(
TR trans4( input a2, input a1, inout a4=@{inout:"s":""}, output a3 ) {
  trans1( a2=${output:a4}, a1=${a1} );
  trans3( a1=${input:a4}, a3=${output:a3} );
}
DS file1 : SDSS/Simple/ASCII size="2048" path="/data/file1";
)",
};

// Mutates `input` with `edits` random single-character operations.
std::string Mutate(std::string input, Rng* rng, int edits) {
  const char kBytes[] = "{}()<>\"$@;:=|*#\\ \n\tTRDVabc123_-./";
  for (int e = 0; e < edits && !input.empty(); ++e) {
    size_t pos = rng->Index(input.size());
    switch (rng->UniformInt(0, 2)) {
      case 0:  // replace
        input[pos] = kBytes[rng->Index(sizeof(kBytes) - 1)];
        break;
      case 1:  // delete
        input.erase(pos, 1);
        break;
      case 2:  // insert
        input.insert(pos, 1, kBytes[rng->Index(sizeof(kBytes) - 1)]);
        break;
    }
  }
  return input;
}

class VdlFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VdlFuzz, MutatedTextNeverCrashesParser) {
  Rng rng(GetParam());
  for (const char* base : kCorpus) {
    for (int round = 0; round < 300; ++round) {
      std::string mangled = Mutate(base, &rng, 1 + round % 8);
      Result<VdlProgram> parsed = ParseVdl(mangled);
      if (!parsed.ok()) {
        EXPECT_TRUE(parsed.status().IsParseError() ||
                    parsed.status().code() ==
                        StatusCode::kInvalidArgument ||
                    parsed.status().IsAlreadyExists())
            << parsed.status() << "\ninput:\n"
            << mangled;
        continue;
      }
      // Anything accepted must survive the printer and re-parse.
      std::string printed = PrintProgram(*parsed);
      Result<VdlProgram> again = ParseVdl(printed);
      EXPECT_TRUE(again.ok())
          << again.status() << "\nprinted form:\n"
          << printed;
    }
  }
}

TEST_P(VdlFuzz, MutatedXmlNeverCrashesWireParser) {
  Rng rng(GetParam() + 1000);
  Result<VdlProgram> program = ParseVdl(kCorpus[0]);
  ASSERT_TRUE(program.ok());
  std::string base = ProgramToXml(*program);
  for (int round = 0; round < 300; ++round) {
    std::string mangled = Mutate(base, &rng, 1 + round % 10);
    Result<VdlProgram> parsed = ParseVdlXml(mangled);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsParseError() ||
                  parsed.status().code() == StatusCode::kInvalidArgument ||
                  parsed.status().IsAlreadyExists())
          << parsed.status();
      continue;
    }
    // Accepted: must re-serialize without issue.
    std::string xml = ProgramToXml(*parsed);
    EXPECT_FALSE(xml.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VdlFuzz,
                         ::testing::Values(3, 17, 1234, 987654));

TEST(VdlFuzzEdgeCases, PathologicalInputs) {
  // Deep nesting, long tokens, truncations: error out, never hang.
  EXPECT_FALSE(ParseVdl(std::string(100000, '(')).ok());
  EXPECT_FALSE(ParseVdl("TR " + std::string(10000, 'a')).ok());
  EXPECT_FALSE(ParseVdl(std::string("DV d->t( x=\"") +
                        std::string(65536, 'y'))
                   .ok());
  EXPECT_TRUE(ParseVdl(std::string(1 << 16, '\n'))->size() == 0);
  EXPECT_FALSE(ParseVdlXml(std::string(50000, '<')).ok());
  std::string nested;
  for (int i = 0; i < 2000; ++i) nested += "<a>";
  EXPECT_FALSE(ParseVdlXml(nested).ok());
  // A well-formed document nested a million deep: an unbounded
  // recursive descent overflows the stack even in an optimized build.
  std::string deep;
  for (int i = 0; i < 1000000; ++i) deep += "<a>";
  for (int i = 0; i < 1000000; ++i) deep += "</a>";
  EXPECT_TRUE(ParseXml(deep).status().IsParseError());
}

}  // namespace
}  // namespace vdg
