// Line-oriented lexer for the simulated Python/Java sources M14 scans.
// It is deliberately small: enough token structure for the statement
// parser and taint propagation (identifiers, dotted names, string literals
// with f-string interpolation markers, operators), not a full grammar.
#pragma once

#include <string>
#include <vector>

#include "genio/appsec/sast/source.hpp"

namespace genio::appsec::sast {

enum class TokenKind {
  kIdent,   // foo, os, system (dots are separate kOp tokens)
  kString,  // literal content without quotes; `interpolated` lists {x} names
  kNumber,
  kOp,      // = == + += % . , : ; ( ) [ ] { } -> etc., one token each
};

struct Token {
  TokenKind kind = TokenKind::kOp;
  std::string text;
  int line = 0;     // 1-based
  int indent = 0;   // leading whitespace of the token's line (Python scoping)
  /// For kString: identifiers referenced by f-string/format placeholders,
  /// e.g. f"id={user}" -> {"user"}. Empty for plain literals.
  std::vector<std::string> interpolated;
};

/// Tokenize a whole source file. Comments (#, //, /* */) are stripped;
/// string literals become single kString tokens so quoted SQL text can
/// never be mistaken for code.
std::vector<Token> lex(const SourceFile& file);

}  // namespace genio::appsec::sast
