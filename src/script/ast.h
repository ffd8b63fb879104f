#pragma once

/// \file ast.h
/// GSL abstract syntax tree. Nodes use a tagged-struct representation (one
/// Expr/Stmt struct each with a kind tag) — compact, cache-friendly, and
/// easy for the analyzer and interpreter to switch over.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "script/token.h"
#include "script/value.h"

namespace gamedb::script {

/// "No frame slot": the name is a global, looked up by name at run time.
constexpr uint32_t kNoSlot = ~uint32_t{0};

enum class ExprKind : uint8_t {
  kLiteral,  // literal -> value
  kVar,      // name
  kUnary,    // op, args[0]
  kBinary,   // op, args[0], args[1]
  kCall,     // name, args...
  kList,     // args... (list literal)
};

/// Expression node. `line`/`col` are the 1-based source position of the
/// token that introduced the node (diagnostics anchor here).
///
/// The parser resolves names that depend only on the source:
///   kVar  — `slot` is the frame slot of the local the name denotes, or
///           kNoSlot for a global;
///   kCall — `site` numbers the call site within its Script (0-based), the
///           index of the slot each interpreter fills at load.
struct Expr {
  ExprKind kind;
  int line = 0;
  int col = 0;
  Value literal;
  std::string name;
  TokenType op = TokenType::kEof;
  std::vector<std::unique_ptr<Expr>> args;
  uint32_t slot = kNoSlot;
  uint32_t site = 0;
};

enum class StmtKind : uint8_t {
  kLet,       // name, expr
  kAssign,    // name, expr
  kExpr,      // expr (expression statement, usually a call)
  kIf,        // expr (cond), body (then), else_body
  kWhile,     // expr (cond), body
  kForeach,   // name (loop var), expr (iterable), body
  kReturn,    // expr (optional)
  kBreak,
  kContinue,
  kFn,        // name, params, body
  kOn,        // name (event), params, body
};

/// Statement node. `line`/`col` as on Expr.
///
/// Frame slots, resolved by the parser: kLet/kForeach bind `name` to
/// `slot`, kAssign writes `slot` (kNoSlot: a global, by name — a top-level
/// `let` outside any block declares one). A kFn/kOn declaration's frame
/// holds `frame_size` slots, its parameters first.
struct Stmt {
  StmtKind kind;
  int line = 0;
  int col = 0;
  std::string name;
  std::unique_ptr<Expr> expr;
  std::vector<std::unique_ptr<Stmt>> body;
  std::vector<std::unique_ptr<Stmt>> else_body;
  std::vector<std::string> params;
  uint32_t slot = kNoSlot;
  uint32_t frame_size = 0;
};

/// A parsed script: top-level statements (the script's "main"), named
/// functions, and event handlers.
struct Script {
  std::string name = "<script>";
  std::vector<std::unique_ptr<Stmt>> top_level;
  /// Function declarations by name (pointers into the owned statements).
  std::unordered_map<std::string, const Stmt*> functions;
  /// Event handlers in declaration order.
  std::vector<const Stmt*> handlers;
  /// Owned declaration statements (functions/handlers live here).
  std::vector<std::unique_ptr<Stmt>> decls;
  /// Number of call sites (Expr::site runs over [0, call_sites)).
  uint32_t call_sites = 0;
  /// Frame slots the top-level statements' block locals need.
  uint32_t frame_size = 0;
};

/// Node counters used by the analyzer and tests.
struct AstStats {
  size_t expr_nodes = 0;
  size_t stmt_nodes = 0;
  size_t loops = 0;       // while + foreach
  size_t functions = 0;
  size_t handlers = 0;
};

/// Walks the script and tallies node statistics.
AstStats CountNodes(const Script& script);

}  // namespace gamedb::script
