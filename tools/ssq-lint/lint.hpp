// ssq-lint: a protocol checker for this repository's hazard-pointer and
// park-episode disciplines plus memory-order hygiene.
//
// Architecture (docs/static_analysis.md):
//
//   source file --(frontend)--> FileModel --(checks.cpp)--> Diagnostics
//
// The frontend (parse.cpp) is a C++ tokenizer plus a statement-structure
// parser specialized to this codebase's idioms; it builds anywhere and is
// what ctest runs and CI gates on.
//
// The checks (check ids are stable; fixtures and suppressions name them):
//   hazard-coverage        deref of a pointer loaded from an
//                          SSQ_GUARDED_BY_HAZARD field without a covering
//                          hazard slot
//   reread-after-drop      deref of a pointer whose covering slot has been
//                          re-pointed or cleared since it was protected
//   park-episode           a path that can leave a prepared park_slot armed
//   mo-unjustified         non-seq_cst atomic op without SSQ_MO_JUSTIFIED
//   mo-relaxed-control     unjustified memory_order_relaxed load feeding a
//                          branch condition (reported instead of
//                          mo-unjustified for that op)
//   cell-state             mutation of an SSQ_CELL_STATE_FIELD without an
//                          adjacent SSQ_CELL_TRANSITION marker, or a marker
//                          naming an edge outside the legal cell protocol
//                          (core/segment_queue.hpp's state machine)
//   bad-suppression        a suppression comment with no justification or
//                          an unknown check name
//
// Marker adjacency is statement-extent based: a marker covers the statement
// it appears in, the next non-marker sibling statement after a consecutive
// run of markers, or the previous sibling when the marker shares its last
// source line. Annotations and atomic operations reached through in-file
// helper-macro expansion (#define bodies) are expanded by the token
// frontend, one level deep per pass, before parsing.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ssqlint {

// ------------------------------------------------------------------ tokens

struct Token {
  enum class Kind { Ident, Punct, Number, String, Char, Eof };
  Kind kind;
  std::string text;
  int line;
};

// Comment stripped out of the token stream but kept for suppressions.
struct Comment {
  std::string text;
  int line; // line the comment starts on
};

// An in-file `#define`, captured so annotations and atomic operations
// wrapped in helper macros are not silently invisible to the checks. Only
// the shapes this tree uses are modeled: object-like and function-like
// macros whose bodies are ordinary token sequences (no stringize/paste).
struct MacroDef {
  std::string name;
  bool function_like = false;
  std::vector<std::string> params;
  std::vector<Token> body; // token lines = directive line
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<MacroDef> defines;
};

// Tokenize C++ source. Comments are removed from the token stream but
// retained separately; preprocessor directives are removed too, except that
// `#define` bodies are captured into `defines` so the parser can expand
// in-file helper macros. `->`, `::`, `&&`, `||`, `==`, `!=`, `<=`, `>=`
// are single tokens, all other punctuation is one char per token.
LexedFile lex(const std::string &src);

// ------------------------------------------------------------------- model

struct Stmt {
  enum class Kind { Plain, Return, If, Loop, Block };
  Kind kind = Kind::Plain;
  int line = 0;
  std::vector<Token> cond;      // If/Loop: condition (For: full header)
  std::vector<Token> toks;      // Plain/Return: statement tokens (no ';')
  std::vector<Stmt> body;       // If: then-arm; Loop/Block: body
  std::vector<Stmt> else_body;  // If only
};

struct Param {
  std::string name;
  std::string type_hint; // last type identifier before the name
  bool is_ptr = false;   // declared with '*'
  bool is_ref = false;   // declared with '&'
  // Derived in checks.cpp once the whole model is built (node types may be
  // declared after the functions that use them):
  bool is_node_ptr = false;
  bool is_slot_ref = false;
  bool is_park_slot = false;
};

struct Function {
  std::string name;
  std::string class_name; // empty for free functions
  int line = 0;           // signature line
  int end_line = 0;
  bool is_ctor_dtor = false;
  bool acquires_hazard = false;
  bool releases_hazard = false;
  bool returns_unprotected = false;
  bool requires_episode_reset = false;
  bool returns_node_ptr = false;       // refined against node_types in checks
  std::string return_type_hint;        // last identifier of the return type
  std::vector<Param> params;
  std::vector<Stmt> body;

  // Derived (checks.cpp, summary pass): indices of params the function
  // dereferences, directly or through another in-file function.
  std::set<std::size_t> deref_params;
};

// One SSQ_CELL_TRANSITION(from, to) marker as written in source.
struct CellTransition {
  int line = 0;
  std::string from, to;
};

struct FileModel {
  std::string path;
  std::set<std::string> guarded_fields; // field names under GUARDED_BY_HAZARD
  std::set<std::string> node_types;     // structs owning a guarded field
  std::set<std::string> cell_state_fields; // fields under SSQ_CELL_STATE_FIELD
  std::vector<CellTransition> cell_transitions;
  std::vector<Function> functions;
  std::vector<Comment> comments;
  std::set<int> mo_justified_lines; // lines holding an SSQ_MO_JUSTIFIED
};

// Portable frontend: build the model from raw source text.
FileModel build_model(const std::string &path, const std::string &src);

// ------------------------------------------------------------- diagnostics

struct Diagnostic {
  std::string file; // basename
  int line;
  std::string check;
  std::string message;

  bool operator<(const Diagnostic &o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return check < o.check;
  }
};

// Run every check over a model.
std::vector<Diagnostic> run_checks(const FileModel &model);

} // namespace ssqlint
