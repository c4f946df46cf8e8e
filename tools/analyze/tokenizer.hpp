// Lightweight C++ tokenizer for the tracon_analyze passes.
//
// This is not a compiler front end: it produces a flat token stream
// good enough for convention checks — identifiers, pp-numbers, string
// and character literals (including raw strings, whose content must
// never read as code), and punctuation, each tagged with its 1-based
// source line. Comments never become tokens; they are collected
// separately, one entry per physical line, so suppression tags ("this
// line or the comment block above") can be matched without re-scanning
// the source.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tracon::analyze {

enum class TokKind {
  kIdentifier,  ///< [A-Za-z_][A-Za-z0-9_]* (keywords included)
  kNumber,      ///< pp-number: 123, 0x1f, 1.5e-3, 1'000'000, 2.0f
  kString,      ///< text holds the literal's content, quotes stripped
  kChar,        ///< text holds the literal's content, quotes stripped
  kHeaderName,  ///< <path> after `#include`; text holds the path
  kPunct,       ///< single- or multi-character operator / punctuator
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  std::size_t line = 0;   ///< 1-based line the token starts on
  bool directive = false; ///< part of a preprocessor directive (incl.
                          ///< spliced continuation lines of a #define)
};

/// One physical line's worth of comment text. A block comment spanning
/// three lines yields three entries, so line-anchored suppression tags
/// work the same for `//` and `/* ... */` styles.
struct CommentLine {
  std::size_t line = 0;  ///< 1-based
  std::string text;
};

struct TokenStream {
  std::vector<Token> tokens;
  std::vector<CommentLine> comments;
};

/// Tokenizes `src`. Never throws: unterminated literals and stray
/// bytes degrade to best-effort tokens rather than errors, because the
/// analyzer must keep walking a tree that is mid-edit.
TokenStream tokenize(const std::string& src);

}  // namespace tracon::analyze
