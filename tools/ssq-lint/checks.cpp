// The checks, run over a FileModel (frontend-independent).
//
// Custody model (checks 1+2). Each local node pointer is in one state:
//   CallerProt -- function parameter: the caller established protection
//                 (ctors/dtors and single-threaded observers are handled by
//                 exemption/suppression, not by weakening this assumption);
//   Owned      -- obtained from rec_.create: no other thread can free it;
//   Covered    -- covered by one or more hazard slots (protect/set or an
//                 SSQ_ACQUIRES_HAZARD function's result);
//   UnprotGuarded -- loaded from an SSQ_GUARDED_BY_HAZARD field (or returned
//                 by an SSQ_RETURNS_UNPROTECTED function): a value, not a
//                 dereferenceable pointer;
//   Dropped    -- was Covered until its last covering slot was re-pointed or
//                 cleared;
//   Null/Untracked -- literal nullptr / anything the model cannot classify.
// Dereferencing UnprotGuarded is `hazard-coverage`; dereferencing Dropped is
// `reread-after-drop`; every other state is silent (Untracked keeps the
// checker conservative about reporting, never about protecting).
//
// In-file calls are summarized: a fixpoint computes which parameters each
// function dereferences (directly or transitively), so passing an
// unprotected value as a pure CAS operand is fine while passing it to a
// function that will dereference it is reported at the call site.
#include "lint.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ssqlint {

namespace {

const char *kCheckNames[] = {"hazard-coverage",    "reread-after-drop",
                             "park-episode",       "mo-unjustified",
                             "mo-relaxed-control", "cell-state",
                             "bad-suppression"};

bool known_check(const std::string &s) {
  for (const char *c : kCheckNames)
    if (s == c) return true;
  return false;
}

bool tok_is(const Token &t, const char *s) { return t.text == s; }
bool is_id(const Token &t) { return t.kind == Token::Kind::Ident; }

// Memory-order spelling: the order name of a memory_order_X token
// ("relaxed", "seq_cst", ...), or "" for any other token.
std::string mo_spelling(const Token &t) {
  if (!is_id(t) || t.text.rfind("memory_order_", 0) != 0) return "";
  return t.text.substr(13);
}

std::string basename_of(const std::string &path) {
  auto pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

// ---------------------------------------------------------------- derive

// Token-level scan of every statement in a function, flattened.
template <typename Fn>
void for_each_stmt(const std::vector<Stmt> &list, Fn &&fn) {
  for (const Stmt &s : list) {
    fn(s);
    for_each_stmt(s.body, fn);
    for_each_stmt(s.else_body, fn);
  }
}

void all_tokens(const std::vector<Stmt> &list, std::vector<Token> &out) {
  for_each_stmt(list, [&](const Stmt &s) {
    out.insert(out.end(), s.cond.begin(), s.cond.end());
    out.insert(out.end(), s.toks.begin(), s.toks.end());
  });
}

// Does `toks` contain a load from a guarded field: GF `.` load | GF `.`
// value `.` load ?
bool has_guarded_load(const std::vector<Token> &toks,
                      const std::set<std::string> &gf) {
  for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
    if (!is_id(toks[k]) || !gf.count(toks[k].text)) continue;
    if (!tok_is(toks[k + 1], ".")) continue;
    if (tok_is(toks[k + 2], "load")) return true;
    if (k + 4 < toks.size() && tok_is(toks[k + 2], "value") &&
        tok_is(toks[k + 3], ".") && tok_is(toks[k + 4], "load"))
      return true;
  }
  return false;
}

bool has_protect_or_set(const std::vector<Token> &toks) {
  for (std::size_t k = 0; k + 1 < toks.size(); ++k)
    if (tok_is(toks[k], ".") &&
        (tok_is(toks[k + 1], "protect") || tok_is(toks[k + 1], "set")))
      return true;
  return false;
}

struct DerivedFn {
  bool pure = false;          // safe to treat as identity on its argument
  std::vector<Token> flat;    // every token in the body, linearized
};

// Classify params, refine returns_node_ptr, compute deref summaries.
void derive(FileModel &m, std::map<std::string, Function *> &by_name,
            std::map<const Function *, DerivedFn> &dv) {
  for (Function &f : m.functions) {
    for (Param &p : f.params) {
      p.is_node_ptr = p.is_ptr && m.node_types.count(p.type_hint) > 0;
      p.is_slot_ref = p.is_ref && p.type_hint == "slot";
      p.is_park_slot = p.type_hint == "park_slot";
    }
    f.returns_node_ptr =
        f.returns_node_ptr && m.node_types.count(f.return_type_hint) > 0;
    by_name[f.name] = &f; // overload collisions: last wins, fine here
    all_tokens(f.body, dv[&f].flat);
  }
  // Direct derefs: PARAM `->`  (and PARAM `.` for by-reference params).
  for (Function &f : m.functions) {
    const auto &flat = dv[&f].flat;
    for (std::size_t k = 0; k + 1 < flat.size(); ++k) {
      if (!is_id(flat[k]) || !tok_is(flat[k + 1], "->")) continue;
      for (std::size_t pi = 0; pi < f.params.size(); ++pi)
        if (f.params[pi].name == flat[k].text) f.deref_params.insert(pi);
    }
  }
  // Transitive: f passes its param bare at a position g dereferences.
  for (int round = 0; round < 4; ++round) {
    bool changed = false;
    for (Function &f : m.functions) {
      const auto &flat = dv[&f].flat;
      for (std::size_t k = 0; k + 1 < flat.size(); ++k) {
        if (!is_id(flat[k]) || !tok_is(flat[k + 1], "(")) continue;
        if (k > 0 && (tok_is(flat[k - 1], ".") || tok_is(flat[k - 1], "->")))
          continue; // method call on some object, not an in-file free call
        auto it = by_name.find(flat[k].text);
        if (it == by_name.end()) continue;
        Function *g = it->second;
        if (g == &f) continue;
        // Split args at paren depth 1.
        std::vector<std::vector<const Token *>> args(1);
        int depth = 0;
        for (std::size_t j = k + 1; j < flat.size(); ++j) {
          const std::string &p = flat[j].text;
          if (p == "(" || p == "[" || p == "{") { ++depth; if (depth == 1) continue; }
          else if (p == ")" || p == "]" || p == "}") {
            --depth;
            if (depth == 0) break;
          } else if (p == "," && depth == 1) {
            args.emplace_back();
            continue;
          }
          args.back().push_back(&flat[j]);
        }
        for (std::size_t ai = 0; ai < args.size(); ++ai) {
          if (args[ai].size() != 1 || !is_id(*args[ai][0])) continue;
          if (!g->deref_params.count(ai)) continue;
          for (std::size_t pi = 0; pi < f.params.size(); ++pi)
            if (f.params[pi].name == args[ai][0]->text &&
                !f.deref_params.count(pi)) {
              f.deref_params.insert(pi);
              changed = true;
            }
        }
      }
    }
    if (!changed) break;
  }
  for (Function &f : m.functions) {
    DerivedFn &d = dv[&f];
    d.pure = f.deref_params.empty() && !f.acquires_hazard &&
             !f.returns_unprotected && !has_guarded_load(d.flat, m.guarded_fields) &&
             !has_protect_or_set(d.flat);
  }
}

// ----------------------------------------------------------- suppressions

struct Suppression {
  std::string check;
  int line;
  bool justified;
};

std::vector<Suppression> parse_suppressions(const FileModel &m,
                                            std::vector<Diagnostic> &diags) {
  std::vector<Suppression> out;
  const std::string file = basename_of(m.path);
  for (const Comment &c : m.comments) {
    auto at = c.text.find("ssq-lint:");
    if (at == std::string::npos) continue;
    auto sp = c.text.find("suppress(", at);
    if (sp == std::string::npos) {
      diags.push_back({file, c.line, "bad-suppression",
                       "malformed ssq-lint comment (expected suppress(<check>))"});
      continue;
    }
    auto close = c.text.find(')', sp);
    if (close == std::string::npos) continue;
    std::string check = c.text.substr(sp + 9, close - (sp + 9));
    if (!known_check(check)) {
      diags.push_back({file, c.line, "bad-suppression",
                       "unknown check '" + check + "' in suppression"});
      continue;
    }
    auto dash = c.text.find("--", close);
    bool justified = false;
    if (dash != std::string::npos) {
      std::string just = c.text.substr(dash + 2);
      justified = just.find_first_not_of(" \t*/") != std::string::npos;
    }
    if (!justified) {
      diags.push_back({file, c.line, "bad-suppression",
                       "suppression of '" + check + "' without a justification"});
      continue;
    }
    out.push_back({check, c.line, true});
  }
  return out;
}

bool suppressed(const Function &f, const std::vector<Suppression> &sup,
                const char *check) {
  for (const Suppression &s : sup)
    if (s.check == check && s.line >= f.line - 2 && s.line <= f.end_line)
      return true;
  return false;
}

// ------------------------------------------------------------ custody sim

enum class VS { Untracked, Null, CallerProt, Owned, Covered, UnprotGuarded, Dropped };

int rank(VS v) {
  switch (v) {
    case VS::Dropped: return 6;
    case VS::UnprotGuarded: return 5;
    case VS::Covered: return 4;
    case VS::Owned: return 3;
    case VS::CallerProt: return 3;
    case VS::Null: return 1;
    default: return 0;
  }
}

struct CustodyState {
  std::map<std::string, VS> vs;
  std::map<std::string, std::set<std::string>> covers;     // slot -> vars
  std::map<std::string, std::set<std::string>> covered_by; // var -> slots
};

struct CustodySim {
  const FileModel &M;
  const Function &F;
  const std::map<std::string, Function *> &by_name;
  const std::map<const Function *, DerivedFn> &dv;
  std::vector<Diagnostic> &diags;
  std::set<std::string> &dedupe; // "check\0var" per function
  bool sup_cov, sup_drop;

  std::set<std::string> slots; // hazard-slot variable names
  CustodyState st;

  CustodySim(const FileModel &m, const Function &f,
             const std::map<std::string, Function *> &bn,
             const std::map<const Function *, DerivedFn> &d,
             std::vector<Diagnostic> &out, std::set<std::string> &dd,
             bool scov, bool sdrop)
      : M(m), F(f), by_name(bn), dv(d), diags(out), dedupe(dd),
        sup_cov(scov), sup_drop(sdrop) {
    for (const Param &p : f.params) {
      if (p.is_slot_ref) slots.insert(p.name);
      else if (p.is_node_ptr) st.vs[p.name] = VS::CallerProt;
    }
  }

  bool tracked(const std::string &n) const { return st.vs.count(n) > 0; }

  void unbind(const std::string &v) {
    auto it = st.covered_by.find(v);
    if (it == st.covered_by.end()) return;
    for (const std::string &s : it->second) st.covers[s].erase(v);
    st.covered_by.erase(it);
  }

  void drop_slot(const std::string &s) {
    for (const std::string &v : st.covers[s]) {
      st.covered_by[v].erase(s);
      if (st.covered_by[v].empty()) st.vs[v] = VS::Dropped;
    }
    st.covers[s].clear();
  }

  void cover(const std::string &slot, const std::string &var) {
    st.covers[slot].insert(var);
    st.covered_by[var].insert(slot);
    st.vs[var] = VS::Covered;
  }

  void assign_copy(const std::string &dst, const std::string &src) {
    unbind(dst);
    st.vs[dst] = st.vs[src];
    auto it = st.covered_by.find(src);
    if (it != st.covered_by.end()) {
      st.covered_by[dst] = it->second;
      for (const std::string &s : it->second) st.covers[s].insert(dst);
    }
  }

  void set_state(const std::string &v, VS s) {
    unbind(v);
    st.vs[v] = s;
  }

  void report(const std::string &var, int line) {
    VS s = st.vs[var];
    const char *check = s == VS::Dropped ? "reread-after-drop" : "hazard-coverage";
    if (s == VS::Dropped ? sup_drop : sup_cov) return;
    std::string key = std::string(check) + "|" + var;
    if (!dedupe.insert(key).second) return;
    std::string msg =
        s == VS::Dropped
            ? "dereference of '" + var +
                  "' after its covering hazard slot was re-pointed or cleared"
            : "dereference of '" + var +
                  "' which is not covered by a hazard slot (value loaded "
                  "from a guarded field)";
    diags.push_back({basename_of(M.path), line, check, msg});
  }

  void check_deref(const std::string &var, int line) {
    VS s = st.vs.count(var) ? st.vs[var] : VS::Untracked;
    if (s == VS::UnprotGuarded || s == VS::Dropped) report(var, line);
  }

  // -------------------------------------------------------------- events

  // Scan one statement's token list for slot declarations, slot method
  // calls, dereferences, and in-file call argument checks.
  void scan_events(const std::vector<Token> &toks) {
    for (std::size_t k = 0; k < toks.size(); ++k) {
      // Slot declaration: `slot NAME ( ... ) [, NAME ( ... )]*`
      if (is_id(toks[k]) && toks[k].text == "slot" && k + 2 < toks.size() &&
          is_id(toks[k + 1]) && tok_is(toks[k + 2], "(")) {
        std::size_t j = k + 1;
        while (j + 1 < toks.size() && is_id(toks[j]) &&
               tok_is(toks[j + 1], "(")) {
          slots.insert(toks[j].text);
          int depth = 0;
          std::size_t e = j + 1;
          for (; e < toks.size(); ++e) {
            if (tok_is(toks[e], "(")) ++depth;
            else if (tok_is(toks[e], ")") && --depth == 0) break;
          }
          j = (e + 1 < toks.size() && tok_is(toks[e + 1], ",")) ? e + 2
                                                                : toks.size();
        }
        continue;
      }
      // Slot method calls.
      if (is_id(toks[k]) && slots.count(toks[k].text) &&
          k + 2 < toks.size() && tok_is(toks[k + 1], ".")) {
        const std::string &m = toks[k + 2].text;
        if (m == "protect") {
          drop_slot(toks[k].text); // rebinding; result handled by assignment
        } else if (m == "clear") {
          drop_slot(toks[k].text);
        } else if (m == "set") {
          drop_slot(toks[k].text);
          // Cover the first tracked var among the args.
          int depth = 0;
          for (std::size_t j = k + 3; j < toks.size(); ++j) {
            if (tok_is(toks[j], "(")) { ++depth; continue; }
            if (tok_is(toks[j], ")") && --depth == 0) break;
            if (is_id(toks[j]) && tracked(toks[j].text)) {
              cover(toks[k].text, toks[j].text);
              break;
            }
          }
        }
        continue;
      }
      // Dereference: VAR -> ...
      if (is_id(toks[k]) && k + 1 < toks.size() &&
          tok_is(toks[k + 1], "->") && tracked(toks[k].text)) {
        check_deref(toks[k].text, toks[k].line);
        continue;
      }
      // In-file call: arg deref checks + slot invalidation.
      if (is_id(toks[k]) && k + 1 < toks.size() && tok_is(toks[k + 1], "(") &&
          (k == 0 || (!tok_is(toks[k - 1], ".") && !tok_is(toks[k - 1], "->")))) {
        auto it = by_name.find(toks[k].text);
        if (it == by_name.end()) continue;
        const Function *g = it->second;
        std::vector<std::vector<const Token *>> args(1);
        int depth = 0;
        for (std::size_t j = k + 1; j < toks.size(); ++j) {
          const std::string &p = toks[j].text;
          if (p == "(" || p == "[" || p == "{") { ++depth; if (depth == 1) continue; }
          else if (p == ")" || p == "]" || p == "}") {
            --depth;
            if (depth == 0) break;
          } else if (p == "," && depth == 1) {
            args.emplace_back();
            continue;
          }
          args.back().push_back(&toks[j]);
        }
        for (std::size_t ai = 0; ai < args.size(); ++ai) {
          if (args[ai].size() != 1 || !is_id(*args[ai][0])) continue;
          const std::string &an = args[ai][0]->text;
          if (g->deref_params.count(ai) && tracked(an))
            check_deref(an, args[ai][0]->line);
          if (slots.count(an)) drop_slot(an); // callee may rebind it
        }
      }
    }
  }

  // ---------------------------------------------------------- assignment

  // Returns index of the first top-level `=` (not ==, !=, <=, >=), or npos.
  static std::size_t top_level_assign(const std::vector<Token> &toks) {
    int depth = 0;
    for (std::size_t k = 0; k < toks.size(); ++k) {
      const std::string &p = toks[k].text;
      if (toks[k].kind == Token::Kind::Punct) {
        if (p == "(" || p == "[" || p == "{" || p == "<") ++depth;
        else if (p == ")" || p == "]" || p == "}" || p == ">") --depth;
        else if (p == "=" && depth <= 0) return k;
      }
    }
    return static_cast<std::size_t>(-1);
  }

  void handle_assignment(const std::vector<Token> &toks) {
    std::size_t eq = top_level_assign(toks);
    if (eq == static_cast<std::size_t>(-1) || eq == 0) return;
    // Target(s).
    std::vector<std::string> targets;
    bool is_decl = false;
    {
      // Structured binding: auto [a, b] = ...
      if (toks.size() > 2 && is_id(toks[0]) && toks[0].text == "auto" &&
          tok_is(toks[1], "[")) {
        for (std::size_t k = 2; k < eq && !tok_is(toks[k], "]"); ++k)
          if (is_id(toks[k])) targets.push_back(toks[k].text);
        is_decl = true;
      } else {
        // Last identifier before `=` that is not inside a group.
        std::string name;
        int depth = 0;
        bool lhs_deref = false, star = false;
        for (std::size_t k = 0; k < eq; ++k) {
          const std::string &p = toks[k].text;
          if (toks[k].kind == Token::Kind::Punct) {
            if (p == "(" || p == "[" || p == "{" || p == "<") ++depth;
            else if (p == ")" || p == "]" || p == "}" || p == ">") --depth;
            else if (p == "->" || p == ".") lhs_deref = true;
            else if (p == "*") star = true;
            continue;
          }
          if (depth == 0 && is_id(toks[k]) &&
              kNotTargets.find(toks[k].text) == kNotTargets.end())
            name = toks[k].text;
        }
        if (lhs_deref || name.empty()) {
          // `x->f = v` / `s->mode = m`: a write through a pointer; the deref
          // was already checked by scan_events.
          return;
        }
        is_decl = star || eq >= 2; // pointer decl or re-assignment; both fine
        targets.push_back(name);
      }
    }
    // Classify RHS.
    std::vector<Token> rhs(toks.begin() + eq + 1, toks.end());

    // 1. slot.protect(...)
    for (std::size_t k = 0; k + 2 < rhs.size(); ++k) {
      if (is_id(rhs[k]) && slots.count(rhs[k].text) &&
          tok_is(rhs[k + 1], ".") && tok_is(rhs[k + 2], "protect")) {
        for (const std::string &t : targets) {
          unbind(t);
          cover(rhs[k].text, t);
        }
        return;
      }
    }
    // 2. rec_.create<...>
    for (std::size_t k = 0; k + 1 < rhs.size(); ++k) {
      if (is_id(rhs[k]) && rhs[k].text == "create" &&
          (tok_is(rhs[k + 1], "<") || tok_is(rhs[k + 1], "("))) {
        for (const std::string &t : targets) set_state(t, VS::Owned);
        return;
      }
    }
    // 3. Guarded-field load.
    if (has_guarded_load(rhs, M.guarded_fields)) {
      for (const std::string &t : targets) set_state(t, VS::UnprotGuarded);
      return;
    }
    // 4/5. In-file calls.
    for (std::size_t k = 0; k + 1 < rhs.size(); ++k) {
      if (!is_id(rhs[k]) || !tok_is(rhs[k + 1], "(")) continue;
      if (k > 0 && (tok_is(rhs[k - 1], ".") || tok_is(rhs[k - 1], "->")))
        continue;
      auto it = by_name.find(rhs[k].text);
      if (it == by_name.end()) continue;
      const Function *g = it->second;
      if (g->acquires_hazard) {
        // Result is covered by the slot argument (first binding for
        // structured bindings; remaining bindings are flags).
        std::string slot_arg;
        int depth = 0;
        for (std::size_t j = k + 1; j < rhs.size(); ++j) {
          if (tok_is(rhs[j], "(")) { ++depth; continue; }
          if (tok_is(rhs[j], ")") && --depth == 0) break;
          if (is_id(rhs[j]) && slots.count(rhs[j].text)) slot_arg = rhs[j].text;
        }
        if (!targets.empty()) {
          unbind(targets[0]);
          if (!slot_arg.empty()) cover(slot_arg, targets[0]);
          else st.vs[targets[0]] = VS::Covered; // anonymous coverage
          for (std::size_t ti = 1; ti < targets.size(); ++ti)
            set_state(targets[ti], VS::Untracked);
        }
        return;
      }
      if (g->returns_unprotected ||
          (g->returns_node_ptr && !dv.at(g).pure)) {
        for (const std::string &t : targets) set_state(t, VS::UnprotGuarded);
        return;
      }
    }
    // 6. Copy: exactly one distinct tracked var mentioned in the RHS.
    {
      std::set<std::string> vars;
      for (const Token &tk : rhs)
        if (is_id(tk) && tracked(tk.text)) vars.insert(tk.text);
      if (vars.size() == 1) {
        for (const std::string &t : targets)
          if (t != *vars.begin()) assign_copy(t, *vars.begin());
        return;
      }
      if (vars.empty()) {
        bool null_only = false;
        for (const Token &tk : rhs)
          if (is_id(tk) && tk.text == "nullptr") null_only = true;
        for (const std::string &t : targets)
          set_state(t, null_only ? VS::Null : VS::Untracked);
        return;
      }
    }
    for (const std::string &t : targets) set_state(t, VS::Untracked);
    (void)is_decl;
  }

  static const std::set<std::string> kNotTargets;

  // ---------------------------------------------------------- simulation

  static bool terminal(const std::vector<Stmt> &list) {
    if (list.empty()) return false;
    const Stmt &last = list.back();
    switch (last.kind) {
      case Stmt::Kind::Return: return true;
      case Stmt::Kind::Plain:
        return last.toks.size() == 1 &&
               (last.toks[0].text == "break" || last.toks[0].text == "continue");
      case Stmt::Kind::Block: return terminal(last.body);
      case Stmt::Kind::If:
        return !last.else_body.empty() && terminal(last.body) &&
               terminal(last.else_body);
      default: return false;
    }
  }

  void merge_into(CustodyState &a, const CustodyState &b) {
    // Meet on states; coverage sets union (FP-safe; this checker reports
    // only states that some path definitely produced as bad).
    for (const auto &kv : b.vs) {
      auto it = a.vs.find(kv.first);
      if (it == a.vs.end()) a.vs[kv.first] = kv.second;
      else if (rank(kv.second) > rank(it->second)) it->second = kv.second;
    }
    for (const auto &kv : b.covered_by)
      for (const std::string &s : kv.second) {
        a.covered_by[kv.first].insert(s);
        a.covers[s].insert(kv.first);
      }
  }

  void simulate(const std::vector<Stmt> &list) {
    for (const Stmt &s : list) simulate_one(s);
  }

  void simulate_one(const Stmt &s) {
    switch (s.kind) {
      case Stmt::Kind::Plain:
      case Stmt::Kind::Return:
        scan_events(s.toks);
        if (s.kind == Stmt::Kind::Plain) handle_assignment(s.toks);
        break;
      case Stmt::Kind::Block:
        simulate(s.body);
        break;
      case Stmt::Kind::If: {
        scan_events(s.cond);
        CustodyState snap = st;
        simulate(s.body);
        bool tterm = terminal(s.body);
        CustodyState after_then = st;
        st = snap;
        simulate(s.else_body);
        bool eterm = !s.else_body.empty() && terminal(s.else_body);
        if (tterm && !eterm) {
          // keep else/fall-through state
        } else if (eterm && !tterm) {
          st = after_then;
        } else if (tterm && eterm) {
          st = snap; // unreachable after; anything is fine
        } else {
          merge_into(st, after_then);
        }
        break;
      }
      case Stmt::Kind::Loop: {
        scan_events(s.cond);
        handle_assignment(s.cond); // for-init declarations
        CustodyState snap = st;
        simulate(s.body);
        merge_into(st, snap);
        break;
      }
    }
  }
};

const std::set<std::string> CustodySim::kNotTargets = {
    "auto",     "const", "typename", "static", "snode", "qnode",
    "node",     "void",  "item_token", "bool", "int",   "unsigned",
    "std",      "mem",   "sync",     "ssq",   "Reclaimer", "slot",
    "qnode_ptr"};

// -------------------------------------------------------- park episodes

struct ParkSim {
  struct PState {
    bool armed = false;
    std::string pending; // wait-result var while armed-after-wait
  };
  const FileModel &M;
  const Function &F;
  std::vector<Diagnostic> &diags;
  std::set<int> reported;
  std::map<std::string, PState> st;

  ParkSim(const FileModel &m, const Function &f, std::vector<Diagnostic> &d)
      : M(m), F(f), diags(d) {}

  static bool any_armed(const std::map<std::string, PState> &s) {
    for (const auto &kv : s)
      if (kv.second.armed) return true;
    return false;
  }

  void report(int line) {
    if (!reported.insert(line).second) return;
    diags.push_back({basename_of(M.path), line, "park-episode",
                     "exit path may leave a prepared park_slot armed "
                     "(missing disarm()/reset() before return)"});
  }

  // Walk back from toks[k] (the method name) across ident/./-> to build the
  // slot expression, e.g. "slot" or "s->slot".
  static std::string slot_expr(const std::vector<Token> &toks, std::size_t k) {
    // toks[k] is the method; toks[k-1] is '.'; expression ends at k-2.
    std::string out;
    std::size_t j = k - 1; // '.'
    while (j > 0) {
      const Token &t = toks[j - 1];
      if (is_id(t) || tok_is(t, "->") || tok_is(t, ".")) {
        out = t.text + out;
        --j;
      } else {
        break;
      }
    }
    return out.empty() ? "<slot>" : out;
  }

  void scan(const std::vector<Token> &toks) {
    for (std::size_t k = 2; k < toks.size(); ++k) {
      if (!is_id(toks[k]) || !tok_is(toks[k - 1], ".")) continue;
      const std::string &m = toks[k].text;
      if (m != "prepare" && m != "disarm" && m != "reset" && m != "wait")
        continue;
      if (k + 1 >= toks.size() || !tok_is(toks[k + 1], "(")) continue;
      std::string se = slot_expr(toks, k);
      // Strip a trailing '.'/'->' artifact: slot_expr includes the final
      // separator-left side only; normalize by removing trailing dots.
      PState &ps = st[se];
      if (m == "prepare") {
        ps.armed = true;
        ps.pending.clear();
      } else if (m == "disarm" || m == "reset") {
        ps.armed = false;
        ps.pending.clear();
      } else { // wait
        ps.armed = true;
        ps.pending.clear();
        // Captured result: `auto R = <se>.wait(` or `R = <se>.wait(`.
        // Find the '=' left of the expression start.
        for (std::size_t j = 0; j + 1 < k; ++j) {
          if (tok_is(toks[j + 1], "=") && is_id(toks[j])) {
            // ensure this '=' directly precedes the slot expr tokens
            ps.pending = toks[j].text;
          }
        }
      }
    }
  }

  static bool terminal(const std::vector<Stmt> &list) {
    return CustodySim::terminal(list);
  }

  void merge_into(std::map<std::string, PState> &a,
                  const std::map<std::string, PState> &b) {
    for (const auto &kv : b) {
      PState &pa = a[kv.first];
      if (kv.second.armed) {
        pa.armed = true;
        if (pa.pending.empty()) pa.pending = kv.second.pending;
      }
    }
  }

  void simulate(const std::vector<Stmt> &list) {
    for (const Stmt &s : list) simulate_one(s);
  }

  void simulate_one(const Stmt &s) {
    switch (s.kind) {
      case Stmt::Kind::Plain:
        scan(s.toks);
        break;
      case Stmt::Kind::Return:
        scan(s.toks);
        if (any_armed(st)) report(s.line);
        break;
      case Stmt::Kind::Block:
        simulate(s.body);
        break;
      case Stmt::Kind::If: {
        scan(s.cond);
        // Wait-result dispatch: `if (R != ... woken)` / `if (R == ... woken)`.
        std::string match_se;
        bool neq = false, eq = false;
        for (const auto &kv : st) {
          if (kv.second.pending.empty()) continue;
          bool has_var = false, has_woken = false;
          for (const Token &t : s.cond) {
            if (is_id(t) && t.text == kv.second.pending) has_var = true;
            if (is_id(t) && t.text == "woken") has_woken = true;
          }
          if (has_var && has_woken) {
            match_se = kv.first;
            for (const Token &t : s.cond) {
              if (tok_is(t, "!=")) neq = true;
              if (tok_is(t, "==")) eq = true;
            }
            break;
          }
        }
        auto snap = st;
        if (!match_se.empty() && eq && !neq) st[match_se].armed = false;
        simulate(s.body);
        bool tterm = terminal(s.body);
        auto after_then = st;
        st = snap;
        if (!match_se.empty() && neq) st[match_se].armed = false;
        simulate(s.else_body);
        bool eterm = !s.else_body.empty() && terminal(s.else_body);
        if (tterm && !eterm) {
          // keep fall-through state
        } else if (eterm && !tterm) {
          st = after_then;
        } else if (tterm && eterm) {
          st = snap;
        } else {
          merge_into(st, after_then);
        }
        break;
      }
      case Stmt::Kind::Loop: {
        scan(s.cond);
        auto snap = st;
        simulate(s.body);
        merge_into(st, snap);
        break;
      }
    }
  }
};

// ------------------------------------------------------------- MO check

// Marker vocabulary. A "justifier" satisfies mo-unjustified for the
// statement it covers; SSQ_CELL_TRANSITION is a marker (it participates in
// marker runs so stacked annotations all reach their statement) but not a
// justifier. Coverage is statement-extent based: a marker covers the
// statement containing it, the next non-marker sibling after a consecutive
// run of marker statements, and the previous sibling when the marker run
// starts on that statement's last source line.
bool is_justifier_name(const std::string &s) {
  return s == "SSQ_MO_JUSTIFIED";
}
bool is_marker_name(const std::string &s) {
  return is_justifier_name(s) || s == "SSQ_CELL_TRANSITION";
}

bool is_marker_stmt(const Stmt &s) {
  return s.kind == Stmt::Kind::Plain && !s.toks.empty() &&
         is_marker_name(s.toks[0].text);
}
bool is_justifier_stmt(const Stmt &s) {
  return s.kind == Stmt::Kind::Plain && !s.toks.empty() &&
         is_justifier_name(s.toks[0].text);
}
bool is_transition_stmt(const Stmt &s) {
  return s.kind == Stmt::Kind::Plain && !s.toks.empty() &&
         s.toks[0].text == "SSQ_CELL_TRANSITION";
}

bool contains_name(const Stmt &s, bool (*pred)(const std::string &)) {
  for (const Token &t : s.toks)
    if (t.kind == Token::Kind::Ident && pred(t.text)) return true;
  for (const Token &t : s.cond)
    if (t.kind == Token::Kind::Ident && pred(t.text)) return true;
  return false;
}

int last_line(const Stmt &s) {
  int l = s.line;
  for (const Token &t : s.toks) l = std::max(l, t.line);
  for (const Token &t : s.cond) l = std::max(l, t.line);
  return l;
}

// Statement-extent coverage within a sibling list: does any marker
// satisfying `stmt_pred` (as a standalone marker statement) or `name_pred`
// (as a token inside the statement itself) cover list[i]?
bool covered_by_marker(const std::vector<Stmt> &list, std::size_t i,
                       bool (*stmt_pred)(const Stmt &),
                       bool (*name_pred)(const std::string &)) {
  if (contains_name(list[i], name_pred)) return true;
  // Preceding consecutive run of marker statements.
  for (std::size_t j = i; j > 0 && is_marker_stmt(list[j - 1]); --j)
    if (stmt_pred(list[j - 1])) return true;
  // Following markers that share the statement's last line (clang-format
  // keeps a trailing marker on the line of the operation it annotates).
  int ll = last_line(list[i]);
  for (std::size_t j = i + 1;
       j < list.size() && is_marker_stmt(list[j]) && list[j].line == ll; ++j)
    if (stmt_pred(list[j])) return true;
  return false;
}

struct MoCheck {
  const FileModel &M;
  bool sup_unjust, sup_control;
  std::vector<Diagnostic> &diags;
  std::set<std::string> seen; // line+check dedupe

  void scan_ops(const std::vector<Token> &toks, bool justified, bool in_cond) {
    for (const Token &t : toks) {
      std::string order = mo_spelling(t);
      if (order.empty() || order == "seq_cst" || justified) continue;
      int line = t.line;
      bool control = in_cond && order == "relaxed";
      const char *check = control ? "mo-relaxed-control" : "mo-unjustified";
      if (control ? sup_control : sup_unjust) continue;
      std::string key = std::to_string(line) + check;
      if (!seen.insert(key).second) continue;
      diags.push_back({basename_of(M.path), line, check,
                       control
                           ? "unjustified memory_order_relaxed load feeding a "
                             "branch condition"
                           : std::string("non-seq_cst atomic operation (") +
                                 order + ") without SSQ_MO_JUSTIFIED"});
    }
  }

  void walk(const std::vector<Stmt> &list) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Stmt &s = list[i];
      bool justified =
          covered_by_marker(list, i, is_justifier_stmt, is_justifier_name);
      scan_ops(s.toks, justified, false);
      scan_ops(s.cond, justified, s.kind == Stmt::Kind::If ||
                                      s.kind == Stmt::Kind::Loop);
      walk(s.body);
      walk(s.else_body);
    }
  }
};

// --------------------------------------------------------- cell-state check

// The legal edges of the waiter-cell state machine
// (core/segment_queue.hpp). `cell_resv` stands for any installed
// seg_select_wait* reservation pointer; the marker names it symbolically.
const std::pair<const char *, const char *> kLegalCellEdges[] = {
    {"cell_empty", "cell_waiter"},    {"cell_empty", "cell_resv"},
    {"cell_empty", "cell_poisoned"},  {"cell_waiter", "cell_matched"},
    {"cell_waiter", "cell_poisoned"}, {"cell_resv", "cell_claimed"},
    {"cell_resv", "cell_poisoned"},   {"cell_claimed", "cell_matched"},
    {"cell_claimed", "cell_poisoned"},
};

bool legal_cell_edge(const CellTransition &t) {
  for (const auto &e : kLegalCellEdges)
    if (t.from == e.first && t.to == e.second) return true;
  return false;
}

// Member calls on a cell-state field that write it. Loads are free; every
// write must declare which protocol edge it takes.
bool is_state_mutator(const std::string &s) {
  return s == "store" || s == "exchange" || s == "compare_exchange_strong" ||
         s == "compare_exchange_weak" || s == "fetch_or" || s == "fetch_and" ||
         s == "fetch_add" || s == "fetch_sub";
}

bool is_transition_name(const std::string &s) {
  return s == "SSQ_CELL_TRANSITION";
}

// A mutation is covered by an SSQ_CELL_TRANSITION marker matched by
// statement extent (covered_by_marker): inside the mutating statement, in
// the run of marker statements immediately preceding it (markers stack, one
// per edge a single CAS can take), or trailing it on its last line. This
// replaces the former fixed 3-line window, which both missed markers above
// multi-line operations and accepted markers that merely happened to sit
// nearby.
struct CellCheck {
  const FileModel &M;
  std::vector<Diagnostic> &diags;
  std::set<int> seen; // line dedupe

  void scan_mutations(const std::vector<Token> &toks, bool covered) {
    for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
      if (!is_id(toks[k]) || !M.cell_state_fields.count(toks[k].text))
        continue;
      if (!tok_is(toks[k + 1], ".")) continue;
      if (!is_id(toks[k + 2]) || !is_state_mutator(toks[k + 2].text)) continue;
      if (covered) continue;
      int line = toks[k].line;
      if (!seen.insert(line).second) continue;
      diags.push_back({basename_of(M.path), line, "cell-state",
                       "mutation of cell-state field '" + toks[k].text +
                           "' without an SSQ_CELL_TRANSITION marker"});
    }
  }

  void walk(const std::vector<Stmt> &list) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Stmt &s = list[i];
      bool covered =
          covered_by_marker(list, i, is_transition_stmt, is_transition_name);
      scan_mutations(s.toks, covered);
      scan_mutations(s.cond, covered);
      walk(s.body);
      walk(s.else_body);
    }
  }
};

} // namespace

std::vector<Diagnostic> run_checks(const FileModel &model) {
  FileModel m = model; // derive() mutates param/function metadata
  std::map<std::string, Function *> by_name;
  std::map<const Function *, DerivedFn> dv;
  derive(m, by_name, dv);

  std::vector<Diagnostic> diags;
  std::vector<Suppression> sups = parse_suppressions(m, diags);

  for (const Function &f : m.functions) {
    if (f.is_ctor_dtor) continue; // construction/teardown is single-threaded

    // Checks 1+2: custody.
    if (!m.guarded_fields.empty()) {
      std::set<std::string> dd;
      CustodySim sim(m, f, by_name, dv, diags, dd,
                     suppressed(f, sups, "hazard-coverage"),
                     suppressed(f, sups, "reread-after-drop"));
      sim.simulate(f.body);
    }

    // Check 3: park episodes. Runs on functions that call prepare() (or are
    // annotated); others rely on spin_then_park's documented postcondition.
    {
      std::vector<Token> flat;
      all_tokens(f.body, flat);
      bool calls_prepare = false;
      for (std::size_t k = 2; k < flat.size(); ++k)
        if (is_id(flat[k]) && flat[k].text == "prepare" &&
            tok_is(flat[k - 1], ".") && k + 1 < flat.size() &&
            tok_is(flat[k + 1], "("))
          calls_prepare = true;
      if ((calls_prepare || f.requires_episode_reset) &&
          !suppressed(f, sups, "park-episode")) {
        ParkSim ps(m, f, diags);
        ps.simulate(f.body);
      }
    }

    // Check 4: memory orders.
    {
      MoCheck mo{m, suppressed(f, sups, "mo-unjustified"),
                 suppressed(f, sups, "mo-relaxed-control"), diags, {}};
      mo.walk(f.body);
    }

    // Check 5: cell-state discipline (only meaningful for files declaring an
    // SSQ_CELL_STATE_FIELD; ctors/dtors were skipped above with the rest).
    if (!m.cell_state_fields.empty() && !suppressed(f, sups, "cell-state")) {
      CellCheck cc{m, diags, {}};
      cc.walk(f.body);
    }
  }

  // Every marker must name a legal protocol edge, wherever it appears.
  for (const CellTransition &t : m.cell_transitions) {
    bool sup = false;
    for (const Function &f : m.functions)
      if (t.line >= f.line && t.line <= f.end_line &&
          suppressed(f, sups, "cell-state"))
        sup = true;
    if (sup) continue;
    if (!legal_cell_edge(t))
      diags.push_back({basename_of(m.path), t.line, "cell-state",
                       "illegal cell-state transition " + t.from + " -> " +
                           t.to});
  }

  std::sort(diags.begin(), diags.end());
  return diags;
}

} // namespace ssqlint
