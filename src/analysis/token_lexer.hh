/**
 * @file
 * Token-level C++ lexer for the lint pass.
 *
 * Produces a real token stream — comment-, string-, char- and
 * raw-string-aware, with 1-based line numbers on every token — that
 * the lint rules match structurally (identifier adjacency, brace
 * depth).  A banned spelling inside a comment or literal, including
 * a raw string with embedded quotes, never reads as code, and a
 * construct may span lines.
 *
 * It is deliberately not a full C++ lexer: numbers are lumped into
 * one token, most punctuation is single characters (only `::` and
 * `->` are fused, because the rules need them), and preprocessor
 * directives are tokenized like ordinary code.  That is exactly
 * enough for lint rules, and simple enough to trust.
 */

#ifndef KLEBSIM_ANALYSIS_TOKEN_LEXER_HH
#define KLEBSIM_ANALYSIS_TOKEN_LEXER_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace klebsim::analysis
{

enum class TokKind
{
    identifier, //!< identifiers and keywords
    number,     //!< any pp-number (integer/float, any base/suffix)
    stringLit,  //!< "...", prefixed (L/u/u8/U) and raw (R"...")
    charLit,    //!< '...', prefixed
    punct,      //!< operators/punctuation; `::` and `->` are fused
};

struct Token
{
    TokKind kind;
    std::string text;  //!< source spelling (literals keep quotes)
    std::size_t line;  //!< 1-based line the token starts on

    bool
    is(TokKind k, std::string_view s) const
    {
        return kind == k && text == s;
    }

    bool isIdent(std::string_view s) const
    { return is(TokKind::identifier, s); }

    bool isPunct(std::string_view s) const
    { return is(TokKind::punct, s); }
};

/**
 * Tokenize @p content.  Never fails: unterminated constructs are
 * closed at end of line (strings/chars) or end of input (block
 * comments, raw strings), matching how a lenient scanner should
 * degrade on malformed input.
 */
std::vector<Token> lexTokens(const std::string &content);

} // namespace klebsim::analysis

#endif // KLEBSIM_ANALYSIS_TOKEN_LEXER_HH
