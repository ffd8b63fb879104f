#pragma once

/// \file resolve.h
/// The one name resolver for GSL call sites. The verifier's bindings pass
/// (analyzer.h) and the interpreter's load step (interpreter.h) both ask it
/// the same two questions about a call expression:
///   - which callee does the name denote? A script function shadows a
///     native builtin of the same name;
///   - which of its arguments are literal schema names (component, field,
///     view, channel, event, comparison operator)?
/// The verifier checks the answers against a SchemaCatalog and reports;
/// the interpreter binds them to TypeInfo/FieldInfo/Effect/LiveView
/// pointers once per load, so the per-call path looks nothing up by name.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "script/ast.h"

namespace gamedb::script {

/// How the verifier's cost pass prices a world builtin.
enum class CostClass : uint8_t {
  kCheap,        ///< O(1) native work
  kScan,         ///< visits every row of a table (scan + predicate)
  kSpatial,      ///< spatial probe + candidate visits
  kViewConst,    ///< O(1) view read
  kViewMembers,  ///< materializes the view membership snapshot
};

/// Argument index meaning "this builtin has no such argument".
constexpr int kNoArg = -1;

/// Static signature of a world/view/trigger builtin: its effect bits
/// (analyzer.h EffectBit), its arity (as enforced at runtime by
/// ExpectArgs), which literal string args name schema objects, and its
/// cost class. Builtins absent from the table (math, list ops, random, ...)
/// are effect-free, name nothing and are priced as kCheap.
struct BuiltinSig {
  const char* name;
  uint32_t effects;
  int arity;  ///< -1: variadic (fire)
  const char* signature;
  int comp_arg;     ///< literal arg resolved as a component name
  int field_arg;    ///< literal arg resolved as a field of comp_arg
  int view_arg;     ///< literal arg resolved as a LiveView name
  int channel_arg;  ///< literal arg resolved as an effect channel
  int event_arg;    ///< literal arg resolved as a trigger event
  int op_arg;       ///< literal arg holding a comparison operator
  CostClass cost;
};

/// Signature-table entry for a builtin name, or nullptr.
const BuiltinSig* FindBuiltinSig(std::string_view name);

/// The literal schema-name arguments of one call site. Each pointer aims
/// at the string literal inside the AST (valid as long as the Script), or
/// is null when the argument is computed at run time, absent, or the call
/// has the wrong arity for its signature.
struct SiteNames {
  const std::string* comp = nullptr;
  const std::string* field = nullptr;
  const std::string* view = nullptr;
  const std::string* channel = nullptr;
  const std::string* event = nullptr;
  const std::string* op = nullptr;
};

/// Literal string argument `idx` of `call`, or nullptr when it is absent
/// or computed at run time (only literals are statically resolvable).
const std::string* LiteralStringArg(const Expr& call, int idx);

/// Extracts the literal schema names of `call` per `sig`.
SiteNames LiteralNames(const Expr& call, const BuiltinSig& sig);

/// What a call expression's name denotes.
enum class CalleeKind : uint8_t { kScript, kBuiltin, kUnknown };

/// The callee rule: a script function shadows a builtin of the same name.
CalleeKind ResolveCallee(
    const std::string& name,
    const std::function<bool(const std::string&)>& is_script_fn,
    const std::function<bool(const std::string&)>& is_builtin);

}  // namespace gamedb::script
