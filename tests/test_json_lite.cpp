// Regression suite for the flat-JSON scanner (util/json_lite) — the
// parsing layer under both the checkpoint journal and the service
// protocol. The first three groups pin the socket-hardening bug fixes:
// a naive substring key search matching inside string values, strtoull
// wraparound accepting negative budgets, and \u escapes silently
// truncating or embedding NUL bytes.
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/rng/rng.hpp"
#include "gbis/svc/protocol.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {
namespace {

// --- Bug 1: key search must not match inside string values ----------------

TEST(JsonFind, KeyTextInsideAStringValueDoesNotMatch) {
  // The old scanner find()'d the quoted key anywhere in the line; a
  // value containing "op":"..." text spoofed the field.
  const std::string line =
      R"({"id":"evil\",\"op\":\"stats","op":"ping"})";
  const std::size_t at = json_find_value(line, "op");
  ASSERT_NE(at, std::string::npos);
  std::string op;
  ASSERT_TRUE(json_parse_string(line, "op", op));
  EXPECT_EQ(op, "ping");
}

TEST(JsonFind, UnescapedQuoteMisparseIsNowStructurallyRejected) {
  // The exact shape that misparsed before: a stray quote ends the id
  // early and the bytes `op":"ping"` read as a real field. The strict
  // validator refuses the line outright.
  const std::string line = R"({"id":"x"op":"ping","budget":1})";
  EXPECT_FALSE(json_object_valid(line));
  // And the lenient scanner stops at the structural break instead of
  // resynchronizing onto the smuggled key.
  EXPECT_EQ(json_find_value(line, "op"), std::string::npos);
  EXPECT_EQ(json_find_value(line, "budget"), std::string::npos);
}

TEST(JsonFind, FirstTopLevelOccurrenceWins) {
  std::uint64_t value = 0;
  ASSERT_TRUE(json_parse_u64(R"({"n":1,"n":2})", "n", value));
  EXPECT_EQ(value, 1u);
}

TEST(JsonFind, NestedKeysDoNotShadowTopLevel) {
  const std::string line = R"({"inner":{"cut":99},"cut":7})";
  std::uint64_t cut = 0;
  ASSERT_TRUE(json_parse_u64(line, "cut", cut));
  EXPECT_EQ(cut, 7u);
}

TEST(JsonFind, KeyAfterNestedArraysIsFound) {
  // The checkpoint journal shape: histogram buckets as nested arrays,
  // scalar fields after them.
  const std::string line = R"({"hists":[[1,2],[3,4]],"cut":7})";
  std::uint64_t cut = 0;
  ASSERT_TRUE(json_parse_u64(line, "cut", cut));
  EXPECT_EQ(cut, 7u);
}

TEST(JsonFind, AbsentKeyIsNpos) {
  EXPECT_EQ(json_find_value(R"({"a":1})", "b"), std::string::npos);
  EXPECT_EQ(json_find_value("", "a"), std::string::npos);
  EXPECT_EQ(json_find_value("not json", "a"), std::string::npos);
}

// --- Bug 2: numeric range errors must fail, not wrap ----------------------

TEST(JsonNumbers, NegativeU64IsRejectedNotWrapped) {
  // strtoull("-1") "succeeds" with 2^64-1; a request {"budget":-1}
  // must not turn into 18 quintillion trials.
  std::uint64_t value = 123;
  EXPECT_FALSE(json_parse_u64(R"({"budget":-1})", "budget", value));
  EXPECT_EQ(value, 123u) << "out must be untouched on failure";
}

TEST(JsonNumbers, U64OverflowIsRejected) {
  std::uint64_t value = 0;
  EXPECT_TRUE(
      json_parse_u64(R"({"n":18446744073709551615})", "n", value));
  EXPECT_EQ(value, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(
      json_parse_u64(R"({"n":18446744073709551616})", "n", value));
}

TEST(JsonNumbers, I64RangeIsEnforced) {
  std::int64_t value = 0;
  EXPECT_TRUE(json_parse_i64(R"({"n":-9223372036854775808})", "n", value));
  EXPECT_EQ(value, std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(json_parse_i64(R"({"n":9223372036854775808})", "n", value));
  EXPECT_FALSE(json_parse_i64(R"({"n":-9223372036854775809})", "n", value));
}

TEST(JsonNumbers, ExplicitPlusSignIsRejected) {
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0;
  EXPECT_FALSE(json_parse_u64(R"({"n":+1})", "n", u));
  EXPECT_FALSE(json_parse_i64(R"({"n":+1})", "n", i));
  EXPECT_FALSE(json_parse_double(R"({"n":+1})", "n", d));
}

TEST(JsonNumbers, NonFiniteDoubleIsRejected) {
  double value = 0;
  EXPECT_FALSE(json_parse_double(R"({"x":1e999})", "x", value));
  EXPECT_TRUE(json_parse_double(R"({"x":-2.5e-3})", "x", value));
  EXPECT_DOUBLE_EQ(value, -2.5e-3);
}

// --- Bug 3: \u escape handling --------------------------------------------

TEST(JsonStrings, UnicodeEscapeDecodesToUtf8) {
  std::string out;
  ASSERT_TRUE(json_parse_string(R"({"s":"A"})", "s", out));
  EXPECT_EQ(out, "A");
  ASSERT_TRUE(json_parse_string(R"({"s":"\u00e9"})", "s", out));
  EXPECT_EQ(out, "\xc3\xa9");  // e-acute, 2-byte UTF-8
  ASSERT_TRUE(json_parse_string(R"({"s":"\u20ac"})", "s", out));
  EXPECT_EQ(out, "\xe2\x82\xac");  // euro sign, 3-byte UTF-8
}

TEST(JsonStrings, SurrogatePairDecodesToFourByteUtf8) {
  std::string out;
  ASSERT_TRUE(json_parse_string(R"({"s":"\ud83d\ude00"})", "s", out));
  EXPECT_EQ(out, "\xf0\x9f\x98\x80");  // U+1F600, grinning face
}

TEST(JsonStrings, MalformedUnicodeEscapesFailTheParse) {
  std::string out = "untouched";
  // Non-hex digits: the old code decoded \uZZZZ to a NUL byte.
  EXPECT_FALSE(json_parse_string(R"({"s":"\uZZZZ"})", "s", out));
  // Truncated escape: the old code silently skipped it.
  EXPECT_FALSE(json_parse_string(R"({"s":"\u00"})", "s", out));
  EXPECT_FALSE(json_parse_string(R"({"s":"a\u12"})", "s", out));
  // Lone surrogates, both halves.
  EXPECT_FALSE(json_parse_string(R"({"s":"\ud800"})", "s", out));
  EXPECT_FALSE(json_parse_string(R"({"s":"\udc00x"})", "s", out));
  EXPECT_EQ(out, "untouched");
}

TEST(JsonStrings, IllegalEscapesAndBadTerminationFail) {
  std::string out;
  EXPECT_FALSE(json_parse_string(R"({"s":"\x41"})", "s", out));
  EXPECT_FALSE(json_parse_string(R"({"s":"unterminated)", "s", out));
  EXPECT_FALSE(json_parse_string("{\"s\":\"raw\tcontrol\"}", "s", out));
  EXPECT_FALSE(json_parse_string(R"({"s":42})", "s", out));
}

TEST(JsonStrings, SimpleEscapeSetRoundTrips) {
  std::string out;
  ASSERT_TRUE(json_parse_string(R"({"s":"a\"b\\c\/d\b\f\n\r\t"})", "s",
                                out));
  EXPECT_EQ(out, "a\"b\\c/d\b\f\n\r\t");
}

TEST(JsonStrings, AppendJsonStringRoundTrips) {
  const std::string original = "line1\nline2\t\"quoted\" \\slash\\ \x01";
  std::string line = "{\"s\":";
  append_json_string(line, original);
  line += "}";
  ASSERT_TRUE(json_object_valid(line));
  std::string decoded;
  ASSERT_TRUE(json_parse_string(line, "s", decoded));
  EXPECT_EQ(decoded, original);
}

// --- json_object_valid: the socket-facing structural gate -----------------

TEST(JsonValid, AcceptsTheProtocolShapes) {
  EXPECT_TRUE(json_object_valid(R"({})"));
  EXPECT_TRUE(json_object_valid(R"({"id":"r1","op":"ping"})"));
  EXPECT_TRUE(json_object_valid(
      R"({"op":"solve","inline":"2 1\n0 1\n","budget":4,)"
      R"("deadline_s":0.5,"want_sides":true,"seed":7})"));
  EXPECT_TRUE(json_object_valid(R"({"a":null,"b":[1,[2,3]],"c":{"d":1}})"));
  EXPECT_TRUE(json_object_valid("  {\"a\":1}  "));
}

TEST(JsonValid, RejectsStructuralGarbage) {
  EXPECT_FALSE(json_object_valid(""));
  EXPECT_FALSE(json_object_valid("ping"));
  EXPECT_FALSE(json_object_valid(R"([1,2,3])"));
  EXPECT_FALSE(json_object_valid(R"({"a":1)"));          // unclosed
  EXPECT_FALSE(json_object_valid(R"({"a":1}})"));        // trailing brace
  EXPECT_FALSE(json_object_valid(R"({"a":1}x)"));        // trailing bytes
  EXPECT_FALSE(json_object_valid(R"({"a" 1})"));         // missing colon
  EXPECT_FALSE(json_object_valid(R"({"a":1,})"));        // trailing comma
  EXPECT_FALSE(json_object_valid(R"({a:1})"));           // bare key
  EXPECT_FALSE(json_object_valid(R"({"a":01})"));        // leading zero
  EXPECT_FALSE(json_object_valid(R"({"a":nul})"));       // bad literal
  EXPECT_FALSE(json_object_valid(R"({"s":"\uZZ"})"));    // bad escape
  EXPECT_FALSE(json_object_valid(R"({"id":"x"op":"y"})"));
}

TEST(JsonValid, DepthIsCapped) {
  std::string deep = "{\"a\":";
  for (int i = 0; i < 32; ++i) deep += "[";
  for (int i = 0; i < 32; ++i) deep += "]";
  deep += "}";
  EXPECT_FALSE(json_object_valid(deep));
}

// --- journal-compat leniency (the scanner, not the validator) -------------

TEST(JsonFind, LenientScalarSkipKeepsHistoricalJournalLinesParsing) {
  // Historical journal lines may hold bare tokens the strict grammar
  // refuses (hex hashes); the key *search* must still walk past them.
  const std::string line = R"({"hash":deadbeef,"cut":7})";
  std::uint64_t cut = 0;
  EXPECT_TRUE(json_parse_u64(line, "cut", cut));
  EXPECT_EQ(cut, 7u);
  EXPECT_FALSE(json_object_valid(line));
}

TEST(JsonHex, ToHex16IsZeroPaddedLowercase) {
  EXPECT_EQ(to_hex16(0), "0000000000000000");
  EXPECT_EQ(to_hex16(0xDEADBEEFull), "00000000deadbeef");
  EXPECT_EQ(to_hex16(~0ull), "ffffffffffffffff");
}

TEST(JsonHex, ParseHex16IsAStrictInverse) {
  std::uint64_t value = 0;
  ASSERT_TRUE(parse_hex16("00000000deadbeef", value));
  EXPECT_EQ(value, 0xDEADBEEFull);
  ASSERT_TRUE(parse_hex16(to_hex16(~0ull), value));
  EXPECT_EQ(value, ~0ull);
  for (const char* bad :
       {"", "deadbeef", "00000000DEADBEEF", "0x00000000deadbee",
        "+0000000deadbeef", "00000000deadbeef0", " 0000000deadbeef",
        "00000000deadbeeg"}) {
    value = 42;
    EXPECT_FALSE(parse_hex16(bad, value)) << bad;
    EXPECT_EQ(value, 42u) << bad;  // untouched on failure
  }
}

// --- json_parse_u64_array --------------------------------------------------

TEST(JsonArray, ParsesFlatUnsignedArrays) {
  std::vector<std::uint64_t> out;
  ASSERT_TRUE(json_parse_u64_array("{\"a\":[1,2,3]}", "a", out, 8));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3}));
  ASSERT_TRUE(json_parse_u64_array("{\"a\":[]}", "a", out, 8));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(json_parse_u64_array("{\"a\": [ 7 , 0 ] }", "a", out, 8));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{7, 0}));
  ASSERT_TRUE(json_parse_u64_array(
      "{\"a\":[18446744073709551615]}", "a", out, 8));
  EXPECT_EQ(out.front(), ~0ull);
  // Cap is inclusive: exactly max_elements parses, one more fails.
  ASSERT_TRUE(json_parse_u64_array("{\"a\":[1,2]}", "a", out, 2));
  EXPECT_FALSE(json_parse_u64_array("{\"a\":[1,2,3]}", "a", out, 2));
}

TEST(JsonArray, MalformedArraysFailWithOutputUntouched) {
  // The corpus every wire-facing consumer (the mutate op's edit
  // batches) depends on rejecting.
  const char* corpus[] = {
      "{\"a\":[1,2}",            // unterminated
      "{\"a\":[1,,2]}",          // empty element
      "{\"a\":[,]}",             // ditto
      "{\"a\":[1,2,]}",          // trailing comma
      "{\"a\":[-1]}",            // negative
      "{\"a\":[+1]}",            // sign
      "{\"a\":[1.5]}",           // float
      "{\"a\":[1e3]}",           // exponent
      "{\"a\":[01]}",            // leading zero
      "{\"a\":[18446744073709551616]}",  // u64 overflow
      "{\"a\":[\"1\"]}",         // string element
      "{\"a\":[[1]]}",           // nested array
      "{\"a\":[{}]}",            // nested object
      "{\"a\":[true]}",          // literal
      "{\"a\":[null]}",          // literal
      "{\"a\":1}",               // not an array
      "{\"a\":\"[1]\"}",         // array spelled inside a string
      "{\"b\":[1]}",             // key absent
  };
  for (const char* line : corpus) {
    std::vector<std::uint64_t> out{99};
    EXPECT_FALSE(json_parse_u64_array(line, "a", out, 8)) << line;
    EXPECT_EQ(out, (std::vector<std::uint64_t>{99})) << line;
  }
}

TEST(JsonArray, FloatTestStaysInsideTheElement) {
  // A '.', 'e' or 'E' later on the line (a key, a string, another
  // number) belongs to another token and changes nothing.
  const char* accepted[] = {
      R"({"a":[1,2],"del_edges":[3]})",
      R"({"a":[1, 2 ],"b":1.5})",
      R"({"a":[7],"c":"E.e"})",
      R"({"a":[0,9],"d":2e3,"E":1})",
  };
  for (const char* line : accepted) {
    std::vector<std::uint64_t> out;
    EXPECT_TRUE(json_parse_u64_array(line, "a", out, 8)) << line;
  }
  // One inside an element is still rejected, wherever it sits.
  const char* rejected[] = {
      R"({"a":[1,2.0],"e":1})",
      R"({"a":[1e2,3]})",
      R"({"a":[4,7E1],"b":"x"})",
      R"({"a":[5.5]})",
  };
  for (const char* line : rejected) {
    std::vector<std::uint64_t> out{99};
    EXPECT_FALSE(json_parse_u64_array(line, "a", out, 8)) << line;
    EXPECT_EQ(out, (std::vector<std::uint64_t>{99})) << line;
  }
}

TEST(JsonArray, LongMutateLineParsesInLinearTime) {
  // Two 2^15-element edit arrays (about 330 KB) followed by keys that
  // hold an 'e'. A float test that scanned on past each element to the
  // next '.', 'e' or 'E' of the line made this parse quadratic.
  std::string add = "[", del = "[";
  for (std::uint32_t i = 0; i < (1u << 15); ++i) {
    const std::string sep = i == 0 ? "" : ",";
    add += sep + std::to_string(i % 10000);
    del += sep + std::to_string((i * 7) % 10000);
  }
  const std::string line = R"({"op":"mutate","add_edges":)" + add +
                           "]," + R"("del_edges":)" + del +
                           R"(],"parent":"00000000deadbeef","id":"e.E"})";
  ASSERT_GT(line.size(), 300000u);
  SvcRequest request;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(parse_request(line, request, error)) << error;
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(request.batch.add_edges.size(), 1u << 15);
  EXPECT_EQ(request.batch.del_edges.size(), 1u << 15);
  EXPECT_EQ(request.batch.del_edges[1], 7u);
  EXPECT_LT(took.count(), 1.0);
}

TEST(JsonArray, OnlyTopLevelKeysMatch) {
  std::vector<std::uint64_t> out;
  // "a" inside a nested object is not the top-level "a".
  ASSERT_TRUE(json_parse_u64_array(
      "{\"x\":{\"a\":[9]},\"a\":[1]}", "a", out, 8));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1}));
  // A string value containing the key cannot spoof it.
  EXPECT_FALSE(json_parse_u64_array(
      "{\"x\":\"\\\"a\\\":[9]\"}", "a", out, 8));
}

// --- Strict enum fields (the request "quality" tier) -----------------------
//
// The three-state contract: absent is fine (the caller defaults),
// valid binds, and present-but-invalid is a hard parse error — a typo
// like "quality":"fastest" must never silently run at the default
// rung.

constexpr const char* kTiers[] = {"fast", "balanced", "best"};

TEST(JsonEnum, AbsentKeyLeavesOutputUntouched) {
  std::string out = "sentinel";
  EXPECT_EQ(json_parse_enum("{\"id\":\"a\"}", "quality", kTiers, 3, out),
            JsonEnumStatus::kAbsent);
  EXPECT_EQ(out, "sentinel");
}

TEST(JsonEnum, EveryAllowedValueBinds) {
  for (const char* tier : kTiers) {
    std::string out;
    const std::string line =
        std::string("{\"quality\":\"") + tier + "\"}";
    EXPECT_EQ(json_parse_enum(line, "quality", kTiers, 3, out),
              JsonEnumStatus::kValid)
        << line;
    EXPECT_EQ(out, tier);
  }
}

TEST(JsonEnum, MalformedQualityCorpusIsInvalidNotDefaulted) {
  // Present-but-wrong in every shape a client gets it wrong: typos,
  // case drift, whitespace, embedded terminators, wrong JSON types.
  const char* corpus[] = {
      "{\"quality\":\"fastest\"}",       // typo past a valid prefix
      "{\"quality\":\"Fast\"}",          // case-sensitive
      "{\"quality\":\"BEST\"}",
      "{\"quality\":\" fast\"}",         // stray whitespace
      "{\"quality\":\"fast \"}",
      "{\"quality\":\"\"}",              // empty string is not absent
      "{\"quality\":\"fast\\u0000\"}",   // embedded NUL
      "{\"quality\":\"balanced,best\"}",
      "{\"quality\":0}",                 // wrong type: number
      "{\"quality\":true}",              // wrong type: bool
      "{\"quality\":null}",              // wrong type: null
      "{\"quality\":[\"fast\"]}",        // wrong type: array
      "{\"quality\":{\"tier\":\"fast\"}}",
  };
  for (const char* line : corpus) {
    std::string out = "sentinel";
    EXPECT_EQ(json_parse_enum(line, "quality", kTiers, 3, out),
              JsonEnumStatus::kInvalid)
        << line;
    // kInvalid carries the offending text for error messages ("" for
    // non-string values) — never the sentinel, never a silent default.
    EXPECT_NE(out, "sentinel") << line;
  }
}

TEST(JsonEnum, SpoofedKeyInsideAStringValueIsAbsent) {
  std::string out = "sentinel";
  EXPECT_EQ(json_parse_enum("{\"id\":\"\\\"quality\\\":\\\"fast\\\"\"}",
                            "quality", kTiers, 3, out),
            JsonEnumStatus::kAbsent);
  EXPECT_EQ(out, "sentinel");
}

// --- JsonFieldIndex: one walk, json_find_value's answers -------------------

TEST(JsonFieldIndex, FindsWhatJsonFindValueFinds) {
  const std::string line =
      R"({"id":"r","x":{"budget":9},"budget":4,"budget":5,"y":[1,{"a":2}],)"
      R"("\u0069nline":"1 0","inline":"2 0","inline":"3 0"})";
  const JsonFieldIndex fields(line);
  for (const char* key : {"id", "x", "budget", "y", "a", "inline",
                          "\\u0069nline", "missing", ""}) {
    EXPECT_EQ(fields.find(key), json_find_value(line, key)) << key;
  }
  std::uint64_t budget = 0;
  ASSERT_TRUE(fields.parse_u64("budget", budget));
  EXPECT_EQ(budget, 4u);  // first occurrence wins
  std::string graph;
  ASSERT_TRUE(fields.parse_string("inline", graph));
  EXPECT_EQ(graph, "2 0");  // the escaped key is a different key
}

TEST(JsonFieldIndex, StopsWhereTheLineBreaks) {
  const std::string line = R"({"a":1,"b":"x"junk,"c":3})";
  const JsonFieldIndex fields(line);
  EXPECT_TRUE(fields.has("a"));
  EXPECT_TRUE(fields.has("b"));  // found before the break, like the scan
  EXPECT_FALSE(fields.has("c"));
  EXPECT_EQ(fields.find("c"), json_find_value(line, "c"));
}

/// One request member, well formed.
const char* const kMembers[] = {
    R"("id":"r1")",
    R"("id":"a\"bA")",
    R"("op":"solve")",
    R"("op":"mutate")",
    R"("op":"stats")",
    R"("op":"nope")",
    R"("trace":"00000000000000ab")",
    R"("trace":7)",
    R"("format":"prom")",
    R"("format":"xml")",
    R"("path":"g.graph")",
    R"("inline":"3 2\n0 1\n1 2 5\n")",
    R"("inline":"")",
    R"("inline":"2 1\n0 1\n")",
    R"("graph":"00000000deadbeef")",
    R"("graph":"DEADBEEF")",
    R"("parent":"00000000deadbeef")",
    R"("method":"kl")",
    R"("method":"")",
    R"("quality":"fast")",
    R"("quality":"fastest")",
    R"("quality":1)",
    R"("budget":4)",
    R"("budget":-1)",
    R"("budget":"4")",
    R"("budget":18446744073709551616)",
    R"("deadline_s":0.5)",
    R"("deadline_s":-2e3)",
    R"("deadline_s":1e999)",
    R"("seed":7)",
    R"("seed":1.5)",
    R"("want_sides":true)",
    R"("want_sides":null)",
    R"("add_edges":[0,1,2,3])",
    R"("add_edges":[0,-1])",
    R"("del_edges":[])",
    R"("del_vertices":[3])",
    R"("del_vertices":[[3]])",
    R"("add_vertices":1)",
    R"("add_vertices":4294967296)",
    R"("x":{"budget":9,"inline":"1 0"})",
    R"("y":[{"budget":9},["inline",{"seed":1}]])",
    R"("z":{"a":[1,{"b":{"c":"}"}}]})",
};

/// Every key parse_request reads.
const char* const kRequestKeys[] = {
    "id",    "op",         "trace",  "format",    "path",
    "inline", "graph",     "parent", "add_edges", "del_edges",
    "del_vertices", "add_vertices", "method", "quality", "budget",
    "deadline_s", "seed",  "want_sides",
};

/// A request line: members drawn with repeats (so keys duplicate), in
/// random order and spacing, then sometimes broken: cut mid-value, a
/// trailing comma, or a byte inserted, deleted or replaced.
std::string mutated_request(Rng& rng) {
  const char* const kSpace[] = {"", "", " ", "\t"};
  std::string line = "{";
  const std::uint64_t count = rng.below(9);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i > 0) line += std::string(kSpace[rng.below(4)]) + ",";
    line += kSpace[rng.below(4)];
    line += kMembers[rng.below(std::size(kMembers))];
  }
  line += kSpace[rng.below(4)];
  if (count > 0 && rng.below(8) == 0) line += ",";
  line += "}";
  static constexpr char kBytes[] = {'{', '}', '[', ']', '"', ',', ':',
                                    ' ', '\\', '0', 'u', '-', '\n'};
  switch (rng.below(6)) {
    case 0: line.resize(rng.below(line.size() + 1)); break;
    case 1: {
      const std::size_t at = rng.below(line.size() + 1);
      line.insert(at, 1, kBytes[rng.below(sizeof kBytes)]);
      break;
    }
    case 2: line.erase(rng.below(line.size()), 1); break;
    case 3:
      line[rng.below(line.size())] = kBytes[rng.below(sizeof kBytes)];
      break;
    default: break;  // left well formed
  }
  return line;
}

TEST(JsonFieldIndex, MatchesTheFreeFunctionsOnMutatedRequests) {
  static constexpr const char* kTiers[] = {"fast", "balanced", "best"};
  Rng rng(2026);
  int found = 0;
  for (int c = 0; c < 20000; ++c) {
    const std::string line = mutated_request(rng);
    const JsonFieldIndex fields(line);
    for (const char* key : kRequestKeys) {
      SCOPED_TRACE(line + " / " + key);
      ASSERT_EQ(fields.find(key), json_find_value(line, key));
      if (fields.has(key)) ++found;

      std::string s1 = "sentinel", s2 = "sentinel";
      EXPECT_EQ(fields.parse_string(key, s1), json_parse_string(line, key, s2));
      EXPECT_EQ(s1, s2);
      std::uint64_t u1 = 99, u2 = 99;
      EXPECT_EQ(fields.parse_u64(key, u1), json_parse_u64(line, key, u2));
      EXPECT_EQ(u1, u2);
      std::int64_t i1 = -99, i2 = -99;
      EXPECT_EQ(fields.parse_i64(key, i1), json_parse_i64(line, key, i2));
      EXPECT_EQ(i1, i2);
      double d1 = 9.5, d2 = 9.5;
      EXPECT_EQ(fields.parse_double(key, d1),
                json_parse_double(line, key, d2));
      EXPECT_EQ(d1, d2);
      bool b1 = true, b2 = true;
      EXPECT_EQ(fields.parse_bool(key, b1), json_parse_bool(line, key, b2));
      EXPECT_EQ(b1, b2);
      std::vector<std::uint64_t> a1{42}, a2{42};
      const std::size_t cap = rng.below(5);
      EXPECT_EQ(fields.parse_u64_array(key, a1, cap),
                json_parse_u64_array(line, key, a2, cap));
      EXPECT_EQ(a1, a2);
      std::string e1 = "sentinel", e2 = "sentinel";
      EXPECT_EQ(fields.parse_enum(key, kTiers, 3, e1),
                json_parse_enum(line, key, kTiers, 3, e2));
      EXPECT_EQ(e1, e2);
    }
  }
  EXPECT_GT(found, 20000);  // the corpus reaches its keys
}

}  // namespace
}  // namespace gbis
