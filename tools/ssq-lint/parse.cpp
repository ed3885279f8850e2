// Portable frontend: build a FileModel from lexed source without a real C++
// parser. It understands exactly the shapes this repository's clang-formatted
// headers use: namespaces, (template) classes, member declarations, and
// function bodies made of blocks / if / loops / return / plain statements.
// Anything it cannot classify degrades to a Plain statement whose tokens are
// still visible to the checks -- the checks are token-pattern driven, so an
// imperfect statement tree loses structure, not events.
#include "lint.hpp"

#include <algorithm>
#include <cassert>

namespace ssqlint {

namespace {

bool is_ident(const Token &t, const char *s) {
  return t.kind == Token::Kind::Ident && t.text == s;
}
bool is_punct(const Token &t, const char *s) {
  return t.kind == Token::Kind::Punct && t.text == s;
}

const std::set<std::string> kTypeishKeywords = {
    "const",    "constexpr", "static",   "inline", "explicit", "virtual",
    "typename", "unsigned",  "signed",   "long",   "short",    "volatile",
    "mutable",  "friend",    "noexcept", "auto",   "void",     "bool",
    "char",     "int",       "float",    "double", "struct",   "class",
    "override", "final",     "template", "using",  "operator", "return",
    "public",   "private",   "protected"};

struct Parser {
  const std::vector<Token> &t;
  std::size_t i = 0;
  FileModel &model;

  Parser(const std::vector<Token> &toks, FileModel &m) : t(toks), model(m) {}

  const Token &cur() const { return t[i]; }
  const Token &at(std::size_t k) const {
    return t[std::min(i + k, t.size() - 1)];
  }
  bool eof() const { return cur().kind == Token::Kind::Eof; }

  // Record SSQ_CELL_TRANSITION(from, to) when `i` sits on the macro name.
  // Lookahead only; the caller's normal token consumption carries on, so
  // the marker stays visible in the statement stream it annotates.
  void maybe_transition() {
    if (is_ident(cur(), "SSQ_CELL_TRANSITION") && is_punct(at(1), "(") &&
        at(2).kind == Token::Kind::Ident && is_punct(at(3), ",") &&
        at(4).kind == Token::Kind::Ident && is_punct(at(5), ")"))
      model.cell_transitions.push_back({cur().line, at(2).text, at(4).text});
  }

  // Skip a balanced group starting at an opener token ('(', '{', '[', '<').
  // For '<' we only use this right after `template`, where it really is a
  // bracket. Leaves `i` one past the closer.
  void skip_balanced(const char *open, const char *close) {
    assert(is_punct(cur(), open));
    int depth = 0;
    while (!eof()) {
      if (is_punct(cur(), open)) ++depth;
      else if (is_punct(cur(), close)) {
        if (--depth == 0) {
          ++i;
          return;
        }
      }
      ++i;
    }
  }

  // --- annotation state pending before the next declaration ----------------
  struct Pending {
    bool guarded = false;
    bool cell_state = false;
    bool acquires = false;
    bool releases = false;
    bool returns_unprot = false;
    bool episode_reset = false;
    void clear() { *this = Pending{}; }
  };

  void scan_scope(const std::string &class_name, bool in_class) {
    Pending pend;
    while (!eof()) {
      const Token &tok = cur();
      if (is_punct(tok, "}")) {
        ++i;
        return;
      }
      if (is_punct(tok, ";")) { // stray
        ++i;
        continue;
      }
      if (tok.kind == Token::Kind::Ident) {
        if (tok.text == "SSQ_GUARDED_BY_HAZARD") {
          pend.guarded = true;
          ++i;
          if (is_punct(cur(), "(")) skip_balanced("(", ")");
          continue;
        }
        if (tok.text == "SSQ_CELL_STATE_FIELD") {
          pend.cell_state = true;
          ++i;
          continue;
        }
        if (tok.text == "SSQ_ACQUIRES_HAZARD") { pend.acquires = true; ++i; continue; }
        if (tok.text == "SSQ_RELEASES_HAZARD") { pend.releases = true; ++i; continue; }
        if (tok.text == "SSQ_RETURNS_UNPROTECTED") { pend.returns_unprot = true; ++i; continue; }
        if (tok.text == "SSQ_REQUIRES_EPISODE_RESET") { pend.episode_reset = true; ++i; continue; }
        if (tok.text == "SSQ_MO_JUSTIFIED") {
          model.mo_justified_lines.insert(tok.line);
          ++i;
          if (is_punct(cur(), "(")) skip_balanced("(", ")");
          if (is_punct(cur(), ";")) ++i;
          continue;
        }
        if (tok.text == "template") {
          ++i;
          if (is_punct(cur(), "<")) skip_angles();
          continue; // annotations survive across the template header
        }
        if (tok.text == "namespace") {
          ++i;
          // namespace a::b { ... }  |  namespace { ... }
          while (!eof() && !is_punct(cur(), "{") && !is_punct(cur(), ";")) ++i;
          if (is_punct(cur(), "{")) {
            ++i;
            scan_scope(class_name, in_class);
          } else if (is_punct(cur(), ";")) {
            ++i; // namespace alias / using-directive tail
          }
          pend.clear();
          continue;
        }
        if (tok.text == "class" || tok.text == "struct" || tok.text == "union") {
          if (try_class(pend)) continue;
          // fall through: elaborated type in a declaration ("struct foo *p;")
        }
        if (tok.text == "enum") {
          // enum [class] [name] [: base] { ... } ; | fwd decl
          ++i;
          while (!eof() && !is_punct(cur(), "{") && !is_punct(cur(), ";")) ++i;
          if (is_punct(cur(), "{")) skip_balanced("{", "}");
          if (is_punct(cur(), ";")) ++i;
          pend.clear();
          continue;
        }
        if ((tok.text == "public" || tok.text == "private" ||
             tok.text == "protected") &&
            is_punct(at(1), ":")) {
          i += 2;
          continue;
        }
        if (tok.text == "using" || tok.text == "typedef" ||
            tok.text == "static_assert") {
          while (!eof() && !is_punct(cur(), ";")) {
            if (is_punct(cur(), "{")) skip_balanced("{", "}");
            else if (is_punct(cur(), "(")) skip_balanced("(", ")");
            else ++i;
          }
          if (!eof()) ++i;
          pend.clear();
          continue;
        }
      }
      // A member/namespace-scope declaration: field, prototype, or function.
      parse_decl(class_name, pend);
      pend.clear();
    }
  }

  // Skip a template parameter bracket `<...>`, counting only <> nesting and
  // skipping parens (default args can hold `>` inside parens... they don't in
  // this tree, but parens are cheap to honor).
  void skip_angles() {
    assert(is_punct(cur(), "<"));
    int depth = 0;
    while (!eof()) {
      if (is_punct(cur(), "<")) ++depth;
      else if (is_punct(cur(), ">")) {
        if (--depth == 0) {
          ++i;
          return;
        }
      } else if (is_punct(cur(), "(")) {
        skip_balanced("(", ")");
        continue;
      }
      ++i;
    }
  }

  // `class`/`struct`/`union` at scope level. Returns false when it is really
  // an elaborated-type-specifier inside a declaration (e.g. a field
  // `struct tl_cache *cache;`), in which case nothing is consumed.
  bool try_class(Pending &pend) {
    std::size_t save = i;
    ++i; // class/struct/union
    while (!eof() && cur().kind == Token::Kind::Ident &&
           (cur().text == "alignas" || cur().text == "SSQ_CACHELINE_ALIGNED"))
      ++i; // attribute-ish macros between keyword and name
    if (is_punct(cur(), "(")) skip_balanced("(", ")"); // alignas(...)
    std::string name;
    if (cur().kind == Token::Kind::Ident) {
      name = cur().text;
      ++i;
    }
    if (cur().kind == Token::Kind::Ident && cur().text == "final") ++i;
    if (is_punct(cur(), ";")) { // forward declaration
      ++i;
      pend.clear();
      return true;
    }
    if (is_punct(cur(), ":")) { // base clause
      while (!eof() && !is_punct(cur(), "{") && !is_punct(cur(), ";")) ++i;
    }
    if (!is_punct(cur(), "{")) {
      i = save; // elaborated type in a declaration; let parse_decl have it
      return false;
    }
    ++i; // '{'
    scan_scope(name, /*in_class=*/true);
    // skip trailing declarators up to ';' ("} name;" is unused here)
    while (!eof() && !is_punct(cur(), ";")) ++i;
    if (!eof()) ++i;
    pend.clear();
    return true;
  }

  // One declaration chunk: collect tokens until `;` (field / prototype) or a
  // function body `{`. Balanced sub-groups are consumed whole; a `{` directly
  // after an identifier (or `=`/`,`) is a brace initializer, not a body.
  void parse_decl(const std::string &class_name, const Pending &pend) {
    std::vector<Token> toks;
    while (!eof()) {
      const Token &tok = cur();
      if (is_punct(tok, ";")) {
        ++i;
        handle_field(toks, class_name, pend);
        return;
      }
      if (is_punct(tok, "(")) {
        collect_balanced(toks, "(", ")");
        continue;
      }
      if (is_punct(tok, "[")) {
        collect_balanced(toks, "[", "]");
        continue;
      }
      if (is_punct(tok, "{")) {
        bool initializer = false;
        if (!toks.empty()) {
          const Token &prev = toks.back();
          if (prev.kind == Token::Kind::Ident &&
              kTypeishKeywords.find(prev.text) == kTypeishKeywords.end())
            initializer = true;
          if (prev.kind == Token::Kind::Punct &&
              (prev.text == "=" || prev.text == ",")) // unused in tree, safe
            initializer = true;
          if (prev.kind == Token::Kind::Punct && prev.text == ">")
            initializer = true; // templated type brace-init
        }
        if (initializer) {
          collect_balanced(toks, "{", "}");
          continue;
        }
        // Function body.
        ++i;
        finish_function(toks, class_name, pend);
        return;
      }
      if (is_punct(tok, "}")) {
        // Malformed chunk (shouldn't happen); bail without consuming.
        handle_field(toks, class_name, pend);
        return;
      }
      toks.push_back(tok);
      ++i;
    }
  }

  void collect_balanced(std::vector<Token> &out, const char *open,
                        const char *close) {
    int depth = 0;
    while (!eof()) {
      if (is_punct(cur(), open)) ++depth;
      else if (is_punct(cur(), close)) --depth;
      maybe_transition(); // e.g. markers inside a switch body
      out.push_back(cur());
      ++i;
      if (depth == 0) return;
    }
  }

  // Field or prototype ended with ';'. Only annotated fields matter.
  void handle_field(const std::vector<Token> &toks,
                    const std::string &class_name, const Pending &pend) {
    if ((!pend.guarded && !pend.cell_state) || toks.empty()) return;
    // Field name: last top-level identifier before any '=' / brace-init /
    // array bracket. toks has balanced groups inlined, so walk with depth.
    std::string name;
    int depth = 0;
    for (const Token &tok : toks) {
      if (tok.kind == Token::Kind::Punct) {
        const std::string &p = tok.text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        else if (p == ")" || p == "]" || p == "}") --depth;
        else if (depth == 0 && p == "=") break;
        continue;
      }
      if (depth == 0 && tok.kind == Token::Kind::Ident &&
          kTypeishKeywords.find(tok.text) == kTypeishKeywords.end())
        name = tok.text;
    }
    if (!name.empty()) {
      if (pend.guarded) {
        model.guarded_fields.insert(name);
        if (!class_name.empty()) model.node_types.insert(class_name);
      }
      if (pend.cell_state) model.cell_state_fields.insert(name);
    }
  }

  // `toks` holds everything up to the body '{' (already consumed).
  void finish_function(const std::vector<Token> &toks,
                       const std::string &class_name, const Pending &pend) {
    Function fn;
    fn.class_name = class_name;
    fn.acquires_hazard = pend.acquires;
    fn.releases_hazard = pend.releases;
    fn.returns_unprotected = pend.returns_unprot;
    fn.requires_episode_reset = pend.episode_reset;

    // Locate the parameter list: the first top-level '(' whose preceding
    // token is an identifier (the function name) or `operator`.
    std::size_t open = toks.size(), close = toks.size();
    {
      int depth = 0;
      for (std::size_t k = 0; k < toks.size(); ++k) {
        const Token &tok = toks[k];
        if (tok.kind != Token::Kind::Punct) continue;
        if (tok.text == "(") {
          if (depth == 0 && open == toks.size() && k > 0 &&
              toks[k - 1].kind == Token::Kind::Ident)
            open = k;
          ++depth;
        } else if (tok.text == ")") {
          --depth;
          if (depth == 0 && open != toks.size() && close == toks.size())
            close = k;
        } else if (tok.text == "{" ) {
          ++depth; // brace-init inside init list
        } else if (tok.text == "}") {
          --depth;
        } else if (depth == 0 && tok.text == ":" && open != toks.size()) {
          break; // ctor-init-list begins; param list already captured
        }
      }
    }
    if (open == toks.size() || close == toks.size() || open == 0) {
      // Not function-shaped after all (e.g. a lambda field initializer we
      // mis-took for a body). Consume the body we already entered and drop.
      swallow_body();
      return;
    }
    fn.name = toks[open - 1].text;
    fn.line = toks[open - 1].line;
    bool dtor = open >= 2 && is_punct(toks[open - 2], "~");
    fn.is_ctor_dtor = dtor || fn.name == class_name;

    // Return type hint: last non-keyword identifier before the name, plus
    // whether a '*' sits between them.
    {
      std::string rt;
      bool star = false;
      for (std::size_t k = 0; k + 1 < open; ++k) {
        const Token &tok = toks[k];
        if (tok.kind == Token::Kind::Ident &&
            kTypeishKeywords.find(tok.text) == kTypeishKeywords.end()) {
          rt = tok.text;
          star = false;
        } else if (is_punct(tok, "*")) {
          star = true;
        }
      }
      if (!rt.empty() && star) {
        fn.returns_node_ptr = true; // refined against node_types in checks
        // stash the hint in a synthetic param slot? No -- keep a field:
      }
      fn.return_type_hint = rt;
    }

    // Parameters: split toks(open+1 .. close-1) on top-level ','.
    {
      std::vector<std::vector<Token>> parts(1);
      int depth = 0;
      for (std::size_t k = open + 1; k < close; ++k) {
        const Token &tok = toks[k];
        if (tok.kind == Token::Kind::Punct) {
          const std::string &p = tok.text;
          if (p == "(" || p == "[" || p == "{" || p == "<") ++depth;
          else if (p == ")" || p == "]" || p == "}" || p == ">") --depth;
          else if (p == "," && depth == 0) {
            parts.emplace_back();
            continue;
          }
        }
        parts.back().push_back(tok);
      }
      for (auto &part : parts) {
        if (part.empty()) continue;
        // Drop a default argument.
        std::vector<Token> decl;
        int d2 = 0;
        for (const Token &tok : part) {
          if (tok.kind == Token::Kind::Punct) {
            const std::string &p = tok.text;
            if (p == "(" || p == "[" || p == "{" || p == "<") ++d2;
            else if (p == ")" || p == "]" || p == "}" || p == ">") --d2;
            else if (p == "=" && d2 == 0) break;
          }
          decl.push_back(tok);
        }
        Param prm;
        bool star = false, amp = false;
        std::string last_ident, prev_ident;
        for (const Token &tok : decl) {
          if (tok.kind == Token::Kind::Ident &&
              kTypeishKeywords.find(tok.text) == kTypeishKeywords.end()) {
            prev_ident = last_ident;
            last_ident = tok.text;
          } else if (is_punct(tok, "*")) {
            star = true;
          } else if (is_punct(tok, "&")) {
            amp = true;
          }
        }
        if (last_ident.empty()) continue; // unnamed / `void`
        prm.name = last_ident;
        prm.type_hint = prev_ident;
        prm.is_ptr = star;
        prm.is_ref = amp;
        fn.params.push_back(std::move(prm));
      }
    }

    fn.body = parse_stmt_list();
    fn.end_line = i > 0 ? t[i - 1].line : fn.line;
    model.functions.push_back(std::move(fn));
  }

  void swallow_body() { // we are just past a '{'
    int depth = 1;
    while (!eof() && depth > 0) {
      if (is_punct(cur(), "{")) ++depth;
      else if (is_punct(cur(), "}")) --depth;
      ++i;
    }
  }

  // ----------------------------------------------------------- statements
  // Called just inside a '{'; consumes through the matching '}'.
  std::vector<Stmt> parse_stmt_list() {
    std::vector<Stmt> out;
    while (!eof() && !is_punct(cur(), "}")) {
      out.push_back(parse_stmt());
    }
    if (!eof()) ++i; // '}'
    return out;
  }

  Stmt parse_stmt() {
    Stmt s;
    s.line = cur().line;
    const Token &tok = cur();
    if (is_punct(tok, "{")) {
      s.kind = Stmt::Kind::Block;
      ++i;
      s.body = parse_stmt_list();
      return s;
    }
    if (is_ident(tok, "if")) {
      s.kind = Stmt::Kind::If;
      ++i;
      if (is_ident(cur(), "constexpr")) ++i;
      grab_cond(s.cond);
      s.body.push_back(parse_stmt());
      if (is_ident(cur(), "else")) {
        ++i;
        s.else_body.push_back(parse_stmt());
      }
      return s;
    }
    if (is_ident(tok, "while") || is_ident(tok, "for")) {
      s.kind = Stmt::Kind::Loop;
      ++i;
      grab_cond(s.cond);
      s.body.push_back(parse_stmt());
      return s;
    }
    if (is_ident(tok, "do")) {
      s.kind = Stmt::Kind::Loop;
      ++i;
      s.body.push_back(parse_stmt());
      if (is_ident(cur(), "while")) {
        ++i;
        grab_cond(s.cond);
        if (is_punct(cur(), ";")) ++i;
      }
      return s;
    }
    if (is_ident(tok, "switch")) {
      // Rare; treat as a Plain statement holding every token so events are
      // still seen linearly.
      s.kind = Stmt::Kind::Plain;
      s.toks.push_back(cur());
      ++i;
      if (is_punct(cur(), "(")) collect_balanced(s.toks, "(", ")");
      if (is_punct(cur(), "{")) collect_balanced(s.toks, "{", "}");
      return s;
    }
    if (is_ident(tok, "return")) {
      s.kind = Stmt::Kind::Return;
      ++i;
      grab_plain_tokens(s.toks);
      return s;
    }
    if (is_punct(tok, ";")) { // empty statement
      ++i;
      return s;
    }
    if (is_ident(tok, "SSQ_MO_JUSTIFIED")) {
      model.mo_justified_lines.insert(tok.line);
      // fall through to plain so it remains a sibling statement
    }
    s.kind = Stmt::Kind::Plain;
    grab_plain_tokens(s.toks);
    return s;
  }

  // Condition / header group: '( ... )' balanced, tokens without the outer
  // parens.
  void grab_cond(std::vector<Token> &out) {
    if (!is_punct(cur(), "(")) return;
    int depth = 0;
    while (!eof()) {
      if (is_punct(cur(), "(")) {
        if (depth++ > 0) out.push_back(cur());
      } else if (is_punct(cur(), ")")) {
        if (--depth == 0) {
          ++i;
          return;
        }
        out.push_back(cur());
      } else {
        if (is_ident(cur(), "SSQ_MO_JUSTIFIED"))
          model.mo_justified_lines.insert(cur().line);
        maybe_transition();
        out.push_back(cur());
      }
      ++i;
    }
  }

  // Tokens up to ';' at depth zero. Lambdas / brace-inits are swallowed in.
  void grab_plain_tokens(std::vector<Token> &out) {
    int depth = 0;
    while (!eof()) {
      const Token &tok = cur();
      if (tok.kind == Token::Kind::Punct) {
        const std::string &p = tok.text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        else if (p == ")" || p == "]" || p == "}") {
          if (p == "}" && depth == 0) return; // missing ';' before '}'
          --depth;
        } else if (p == ";" && depth == 0) {
          ++i;
          return;
        }
      }
      if (is_ident(tok, "SSQ_MO_JUSTIFIED"))
        model.mo_justified_lines.insert(tok.line);
      maybe_transition();
      out.push_back(tok);
      ++i;
    }
  }
};

// One expansion pass over the token stream: every use of an in-file
// MacroDef is replaced by its body, with function-like parameters
// substituted by the use-site argument tokens and every spliced token
// re-stamped with the invocation line. Ran to a fixed point (bounded) by
// expand_macros so macros wrapping macros still resolve; self-reference is
// cut off by the pass bound rather than tracked.
std::vector<Token> expand_once(const std::vector<Token> &in,
                               const std::map<std::string, const MacroDef *> &defs,
                               bool &changed) {
  std::vector<Token> out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Token &tok = in[i];
    auto it = tok.kind == Token::Kind::Ident ? defs.find(tok.text)
                                             : defs.end();
    if (it == defs.end()) {
      out.push_back(tok);
      continue;
    }
    const MacroDef &def = *it->second;
    int use_line = tok.line;
    std::vector<std::vector<Token>> args;
    std::size_t next = i + 1;
    if (def.function_like) {
      if (next >= in.size() || !is_punct(in[next], "(")) {
        out.push_back(tok); // name without call syntax: not an invocation
        continue;
      }
      args.emplace_back();
      int depth = 0;
      std::size_t j = next;
      for (; j < in.size(); ++j) {
        const Token &a = in[j];
        if (is_punct(a, "(")) {
          if (depth++ == 0) continue;
        } else if (is_punct(a, ")")) {
          if (--depth == 0) break;
        } else if (is_punct(a, ",") && depth == 1) {
          args.emplace_back();
          continue;
        }
        args.back().push_back(a);
      }
      if (j >= in.size()) { // unbalanced; bail on this invocation
        out.push_back(tok);
        continue;
      }
      next = j + 1;
    }
    for (const Token &bt : def.body) {
      bool substituted = false;
      if (def.function_like && bt.kind == Token::Kind::Ident) {
        for (std::size_t pi = 0; pi < def.params.size(); ++pi) {
          if (def.params[pi] != bt.text) continue;
          if (pi < args.size())
            for (Token at : args[pi]) {
              at.line = use_line;
              out.push_back(at);
            }
          substituted = true;
          break;
        }
      }
      if (!substituted) {
        Token copy = bt;
        copy.line = use_line;
        out.push_back(copy);
      }
    }
    i = next - 1;
    changed = true;
  }
  return out;
}

std::vector<Token> expand_macros(std::vector<Token> tokens,
                                 const std::vector<MacroDef> &defines) {
  if (defines.empty()) return tokens;
  std::map<std::string, const MacroDef *> defs;
  for (const MacroDef &d : defines)
    if (!d.body.empty()) defs[d.name] = &d; // empty bodies: plain erasure is
                                            // what the old behavior did too
  for (int pass = 0; pass < 4; ++pass) {
    bool changed = false;
    tokens = expand_once(tokens, defs, changed);
    if (!changed) break;
  }
  return tokens;
}

} // namespace

FileModel build_model(const std::string &path, const std::string &src) {
  FileModel model;
  model.path = path;
  LexedFile lf = lex(src);
  model.comments = std::move(lf.comments);
  std::vector<Token> tokens = expand_macros(std::move(lf.tokens), lf.defines);
  Parser p(tokens, model);
  p.scan_scope("", /*in_class=*/false);
  return model;
}

} // namespace ssqlint
