/**
 * @file
 * Tests for the token-level lint engine (analysis/token_lexer +
 * the structural rule matchers in analysis/lint).
 *
 * Two layers: lexer unit tests (raw strings, comments, literals,
 * line numbers) and scope-tracking checks through scanSource.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hh"
#include "analysis/token_lexer.hh"

namespace
{

using klebsim::analysis::lexTokens;
using klebsim::analysis::Linter;
using klebsim::analysis::TokKind;
using klebsim::analysis::Token;

std::vector<std::string>
kindsAndTexts(const std::vector<Token> &toks)
{
    std::vector<std::string> out;
    for (const Token &t : toks) {
        const char *k = "?";
        switch (t.kind) {
          case TokKind::identifier: k = "id"; break;
          case TokKind::number: k = "num"; break;
          case TokKind::stringLit: k = "str"; break;
          case TokKind::charLit: k = "chr"; break;
          case TokKind::punct: k = "p"; break;
        }
        out.push_back(std::string(k) + ":" + t.text);
    }
    return out;
}

TEST(TokenLexer, IdentifiersNumbersAndFusedPuncts)
{
    auto toks = lexTokens("std::mt19937 x = obj->run(1'000ull);");
    EXPECT_EQ(kindsAndTexts(toks),
              (std::vector<std::string>{
                  "id:std", "p:::", "id:mt19937", "id:x", "p:=",
                  "id:obj", "p:->", "id:run", "p:(",
                  "num:1'000ull", "p:)", "p:;"}));
}

TEST(TokenLexer, LineNumbersAreOneBasedAndTrackNewlines)
{
    auto toks = lexTokens("a\nb\n\n  c d\n");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(toks[0].line, 1u);
    EXPECT_EQ(toks[1].line, 2u);
    EXPECT_EQ(toks[2].line, 4u);
    EXPECT_EQ(toks[3].line, 4u);
}

TEST(TokenLexer, LineCommentsAreInvisible)
{
    auto toks = lexTokens("x // rand() printf(\"y\") .detach()\nz");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_TRUE(toks[0].isIdent("x"));
    EXPECT_TRUE(toks[1].isIdent("z"));
    EXPECT_EQ(toks[1].line, 2u);
}

TEST(TokenLexer, BlockCommentsSpanLinesAndCountThem)
{
    auto toks = lexTokens("a /* rand()\n srand()\n mt19937 */ b");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_TRUE(toks[1].isIdent("b"));
    EXPECT_EQ(toks[1].line, 3u);
}

TEST(TokenLexer, StringsSwallowEmbeddedKeywords)
{
    auto toks = lexTokens("log(\"rand() and time( here\");");
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_EQ(toks[2].kind, TokKind::stringLit);
    // Nothing inside the literal surfaced as an identifier.
    for (const Token &t : toks)
        EXPECT_FALSE(t.isIdent("rand")) << t.text;
}

TEST(TokenLexer, EscapedQuotesStayInsideTheString)
{
    auto toks = lexTokens(R"(f("say \"rand()\"") g)");
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_EQ(toks[2].kind, TokKind::stringLit);
    EXPECT_TRUE(toks[4].isIdent("g"));
}

TEST(TokenLexer, RawStringsSpanLinesAndKeepEmbeddedQuotes)
{
    const std::string src =
        "before R\"x(line one \"quoted\" rand()\nline two)x\" after";
    auto toks = lexTokens(src);
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_TRUE(toks[0].isIdent("before"));
    EXPECT_EQ(toks[1].kind, TokKind::stringLit);
    EXPECT_TRUE(toks[2].isIdent("after"));
    EXPECT_EQ(toks[2].line, 2u); // raw string ate one newline
}

TEST(TokenLexer, RawStringDelimiterMustMatch)
{
    // A plain )" inside the body does not close a )x" raw string.
    auto toks = lexTokens("R\"x(inner )\" still inside)x\" tail");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokKind::stringLit);
    EXPECT_TRUE(toks[1].isIdent("tail"));
}

TEST(TokenLexer, EncodingPrefixesAttachToLiterals)
{
    auto toks = lexTokens("u8R\"(mt19937)\" L\"wide\" u'c' x");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(toks[0].kind, TokKind::stringLit);
    EXPECT_EQ(toks[1].kind, TokKind::stringLit);
    EXPECT_EQ(toks[2].kind, TokKind::charLit);
    EXPECT_TRUE(toks[3].isIdent("x"));
}

TEST(TokenLexer, QuoteAsCharLiteralDoesNotOpenAString)
{
    auto toks = lexTokens("a = '\"'; rand();");
    bool sawRand = false;
    for (const Token &t : toks)
        sawRand = sawRand || t.isIdent("rand");
    EXPECT_TRUE(sawRand); // the code after the char literal is code
}

TEST(TokenLexer, UnterminatedStringStopsAtEndOfLine)
{
    auto toks = lexTokens("s = \"oops\nnext");
    ASSERT_GE(toks.size(), 3u);
    EXPECT_TRUE(toks.back().isIdent("next"));
    EXPECT_EQ(toks.back().line, 2u);
}

TEST(TokenLexer, PpNumbersLumpExponentsAndHex)
{
    auto toks = lexTokens("1.5e-3 0x1fULL .25f");
    ASSERT_EQ(toks.size(), 3u);
    for (const Token &t : toks)
        EXPECT_EQ(t.kind, TokKind::number) << t.text;
}

// ---------------------------------------------------------------
// Scope tracking through the public scanner.

std::multiset<std::pair<std::string, std::size_t>>
findings(const Linter &linter, const std::string &rel,
         const std::string &src)
{
    std::multiset<std::pair<std::string, std::size_t>> out;
    for (const auto &v : linter.scanSource(rel, src))
        out.insert({v.rule, v.line});
    return out;
}

TEST(TokenLint, HotAllocTracksNestedBracesAndDisarm)
{
    Linter linter;
    const std::string src =
        "KLEB_HOT void f(std::vector<int> &v);\n" // decl: disarmed
        "void cold(std::vector<int> &v)\n"
        "{\n"
        "    v.push_back(1);\n" // line 4: legal, not hot
        "}\n"
        "KLEB_HOT void g(std::vector<int> &v)\n"
        "{\n"
        "    if (true) {\n"
        "        v.reserve(2);\n" // line 9: nested in hot body
        "    }\n"
        "    int *p = new int;\n" // line 11: hot body
        "}\n"
        "void after(std::vector<int> &v)\n"
        "{\n"
        "    v.resize(3);\n" // line 15: hot body closed
        "}\n";
    auto got = findings(linter, "src/x/f.cc", src);
    decltype(got) want{{"hot-alloc", 9}, {"hot-alloc", 11}};
    EXPECT_EQ(got, want);
}

TEST(TokenLint, OneFindingPerRulePerLine)
{
    Linter linter;
    // Two bare locks on one line still report once.
    auto got = findings(linter, "src/x/f.cc",
                        "void f() { a.lock(); b.lock(); }\n");
    decltype(got) want{{"mutex-raii", 1}};
    EXPECT_EQ(got, want);
}

} // anonymous namespace
