#include "detlint/source_scan.hpp"

#include <cctype>

namespace hinet::detlint {

namespace {

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

// Joins line splices ("\<newline>") out of a raw directive slice so the kPp
// token carries one logical line of text.
std::string splice_lines(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' &&
        (i + 1 < raw.size() && (raw[i + 1] == '\n' ||
                                (raw[i + 1] == '\r' && i + 2 < raw.size() &&
                                 raw[i + 2] == '\n')))) {
      i += raw[i + 1] == '\r' ? 2u : 1u;
      out.push_back(' ');
      continue;
    }
    if (raw[i] == '\n' || raw[i] == '\r') {
      out.push_back(' ');
      continue;
    }
    out.push_back(raw[i]);
  }
  return out;
}

// Parses `#include "x"` / `#include <x>` out of a spliced directive text.
void parse_include(SourceFile& out, const std::string& text,
                   std::size_t line) {
  std::size_t i = 1;  // past '#'
  while (i < text.size() && is_space(text[i])) ++i;
  std::string word;
  while (i < text.size() && is_word_char(text[i])) word.push_back(text[i++]);
  if (word != "include" && word != "include_next") return;
  while (i < text.size() && is_space(text[i])) ++i;
  if (i >= text.size()) return;
  const char open = text[i];
  const char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
  if (close == '\0') return;  // computed include (#include MACRO) — opaque
  const std::size_t end = text.find(close, i + 1);
  if (end == std::string::npos) return;
  out.includes.push_back(IncludeDirective{text.substr(i + 1, end - i - 1),
                                          line, open == '<'});
}

}  // namespace

SourceFile scan_source(std::string path, std::string_view text) {
  SourceFile out;
  out.path = std::move(path);

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State st = State::kCode;
  std::string code;
  std::string comment;
  std::string raw_terminator;  // ")delim\"" that closes the raw string
  bool escape = false;

  // Token accumulation (suppressed inside preprocessor directives: each
  // directive is emitted as one kPp token instead).
  std::string tok;           // pending identifier / number
  std::size_t tok_line = 1;  // line the pending token started on
  bool in_pp = false;
  std::size_t pp_start = 0;
  std::size_t pp_line = 0;
  bool line_has_code = false;

  const std::size_t n = text.size();
  std::size_t i = 0;

  auto cur_line = [&] { return out.lines.size() + 1; };

  auto flush_token = [&] {
    if (tok.empty()) return;
    const bool numeric = std::isdigit(static_cast<unsigned char>(tok.front())) != 0;
    out.tokens.push_back(Token{numeric ? TokKind::kNumber : TokKind::kIdent,
                               std::move(tok), tok_line});
    tok.clear();
  };

  auto finish_pp = [&](std::size_t end) {
    const std::string spliced =
        splice_lines(text.substr(pp_start, end - pp_start));
    parse_include(out, spliced, pp_line);
    out.tokens.push_back(Token{TokKind::kPp, spliced, pp_line});
    in_pp = false;
  };

  auto flush_line = [&] {
    out.lines.push_back(SourceLine{std::move(code), std::move(comment)});
    code.clear();
    comment.clear();
    line_has_code = false;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      // Line comments end at the newline; an unterminated ordinary string or
      // character literal is broken source, so fall back to code state rather
      // than swallowing the rest of the file.  Block comments and raw strings
      // legitimately span lines.
      if (st == State::kLineComment || st == State::kString ||
          st == State::kChar) {
        st = State::kCode;
      }
      escape = false;
      flush_token();
      if (in_pp && st == State::kCode) {
        // A directive survives the newline only through a line splice.
        std::size_t j = i;
        if (j > pp_start && text[j - 1] == '\r') --j;
        if (!(j > pp_start && text[j - 1] == '\\')) finish_pp(i);
      }
      flush_line();
      ++i;
      continue;
    }
    switch (st) {
      case State::kCode:
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          flush_token();
          st = State::kLineComment;
          i += 2;
          continue;
        }
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          flush_token();
          st = State::kBlockComment;
          i += 2;
          continue;
        }
        if (c == '"') {
          if (!code.empty() && code.back() == 'R') {
            // Raw string literal: collect the delimiter up to '('.
            std::size_t j = i + 1;
            std::string delim;
            while (j < n && text[j] != '(' && text[j] != '\n' &&
                   delim.size() <= 16) {
              delim.push_back(text[j]);
              ++j;
            }
            if (j < n && text[j] == '(') {
              raw_terminator = ")" + delim + "\"";
              st = State::kRawString;
              code += "\"\"";
              // The pending "R" (or "LR"/"u8R" …) prefix is part of the
              // literal, not an identifier of its own.
              tok.clear();
              if (!in_pp) {
                out.tokens.push_back(Token{TokKind::kString, {}, cur_line()});
              }
              i = j + 1;
              continue;
            }
          }
          flush_token();
          if (!in_pp) {
            out.tokens.push_back(Token{TokKind::kString, {}, cur_line()});
          }
          st = State::kString;
          code += '"';
          line_has_code = true;
          ++i;
          continue;
        }
        if (c == '\'') {
          // Digit separators (1'000'000) are part of the preceding numeric
          // token, not a character literal.
          if (!code.empty() && is_word_char(code.back())) {
            code += c;
            if (!in_pp && !tok.empty()) tok += c;
            ++i;
            continue;
          }
          flush_token();
          if (!in_pp) {
            out.tokens.push_back(Token{TokKind::kChar, {}, cur_line()});
          }
          st = State::kChar;
          code += '\'';
          line_has_code = true;
          ++i;
          continue;
        }
        if (c == '#' && !in_pp && !line_has_code) {
          in_pp = true;
          pp_start = i;
          pp_line = cur_line();
        }
        if (is_word_char(c)) {
          if (!in_pp) {
            if (tok.empty()) tok_line = cur_line();
            tok += c;
          }
          line_has_code = true;
        } else {
          flush_token();
          if (!is_space(c)) line_has_code = true;
          if (!in_pp && !is_space(c) && c != '\\') {
            // "::" and "->" are structural for the token rules; everything
            // else is a single-character punctuator.
            if (c == ':' && i + 1 < n && text[i + 1] == ':') {
              out.tokens.push_back(Token{TokKind::kPunct, "::", cur_line()});
              code += "::";
              i += 2;
              continue;
            }
            if (c == '-' && i + 1 < n && text[i + 1] == '>') {
              out.tokens.push_back(Token{TokKind::kPunct, "->", cur_line()});
              code += "->";
              i += 2;
              continue;
            }
            out.tokens.push_back(Token{TokKind::kPunct, std::string(1, c),
                                       cur_line()});
          }
        }
        code += c;
        ++i;
        continue;
      case State::kLineComment:
        comment += c;
        ++i;
        continue;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          st = State::kCode;
          i += 2;
          continue;
        }
        comment += c;
        ++i;
        continue;
      case State::kString:
        if (escape) {
          escape = false;
          ++i;
          continue;
        }
        if (c == '\\') {
          escape = true;
          ++i;
          continue;
        }
        if (c == '"') {
          st = State::kCode;
          code += '"';
          ++i;
          continue;
        }
        ++i;
        continue;
      case State::kChar:
        if (escape) {
          escape = false;
          ++i;
          continue;
        }
        if (c == '\\') {
          escape = true;
          ++i;
          continue;
        }
        if (c == '\'') {
          st = State::kCode;
          code += '\'';
          ++i;
          continue;
        }
        ++i;
        continue;
      case State::kRawString:
        if (text.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          st = State::kCode;
          i += raw_terminator.size();
          continue;
        }
        ++i;
        continue;
    }
  }
  flush_token();
  if (in_pp) finish_pp(n);
  flush_line();
  return out;
}

}  // namespace hinet::detlint
