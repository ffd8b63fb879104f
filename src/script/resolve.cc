#include "script/resolve.h"

#include "script/analyzer.h"

namespace gamedb::script {

namespace {

// Keep signature strings identical to the runtime ExpectArgs call sites in
// bindings.cc / triggers.cc — the static arity diagnostic renders the same
// text a designer would have hit at runtime.
const BuiltinSig kBuiltinSigs[] = {
    {"spawn", kEffectSpawn, 0, "spawn()", kNoArg, kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, CostClass::kCheap},
    {"destroy", kEffectGatedWrite, 1, "destroy(e)", kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"is_alive", kEffectWorldRead, 1, "is_alive(e)", kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"has", kEffectWorldRead, 2, "has(e, \"Comp\")", 1, kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, CostClass::kCheap},
    {"add", kEffectGatedWrite, 2, "add(e, \"Comp\")", 1, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"remove", kEffectGatedWrite, 2, "remove(e, \"Comp\")", 1, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"get", kEffectWorldRead, 3, "get(e, \"Comp\", \"field\")", 1, 2, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"set", kEffectGatedWrite, 4, "set(e, \"Comp\", \"field\", v)", 1, 2,
     kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"entities_with", kEffectWorldRead, 1, "entities_with(\"Comp\")", 0,
     kNoArg, kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"count", kEffectWorldRead, 1, "count(\"Comp\")", 0, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"sum", kEffectWorldRead, 2, "sum(\"Comp\", \"field\")", 0, 1, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"smin", kEffectWorldRead, 2, "smin(\"Comp\", \"field\")", 0, 1, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"smax", kEffectWorldRead, 2, "smax(\"Comp\", \"field\")", 0, 1, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"avg", kEffectWorldRead, 2, "avg(\"Comp\", \"field\")", 0, 1, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"argmin", kEffectWorldRead, 2, "argmin(\"Comp\", \"field\")", 0, 1,
     kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"argmax", kEffectWorldRead, 2, "argmax(\"Comp\", \"field\")", 0, 1,
     kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"where", kEffectWorldRead, 4, "where(\"Comp\", \"field\", \"op\", v)", 0,
     1, kNoArg, kNoArg, kNoArg, 2, CostClass::kScan},
    {"within", kEffectWorldRead, 2, "within(center, radius)", kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kSpatial},
    {"emit", kEffectEmit, 3, "emit(\"channel\", target, amount)", kNoArg,
     kNoArg, kNoArg, 0, kNoArg, kNoArg, CostClass::kCheap},
    {"tick", kEffectWorldRead, 0, "tick()", kNoArg, kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, CostClass::kCheap},
    {"view_count", kEffectViewRead, 1, "view_count(\"name\")", kNoArg, kNoArg,
     0, kNoArg, kNoArg, kNoArg, CostClass::kViewConst},
    {"view_contains", kEffectViewRead, 2, "view_contains(\"name\", e)", kNoArg,
     kNoArg, 0, kNoArg, kNoArg, kNoArg, CostClass::kViewConst},
    {"view_members", kEffectViewRead, 1, "view_members(\"name\")", kNoArg,
     kNoArg, 0, kNoArg, kNoArg, kNoArg, CostClass::kViewMembers},
    {"view_aggregate", kEffectViewRead, 1, "view_aggregate(\"name\")", kNoArg,
     kNoArg, 0, kNoArg, kNoArg, kNoArg, CostClass::kViewConst},
    {"fire", kEffectFire, -1, "fire(\"event\", args...)", kNoArg, kNoArg,
     kNoArg, kNoArg, 0, kNoArg, CostClass::kCheap},
};

}  // namespace

const BuiltinSig* FindBuiltinSig(std::string_view name) {
  for (const BuiltinSig& sig : kBuiltinSigs) {
    if (name == sig.name) return &sig;
  }
  return nullptr;
}

const std::string* LiteralStringArg(const Expr& call, int idx) {
  if (idx < 0 || static_cast<size_t>(idx) >= call.args.size()) return nullptr;
  const Expr& a = *call.args[static_cast<size_t>(idx)];
  if (a.kind != ExprKind::kLiteral || !a.literal.IsString()) return nullptr;
  return &a.literal.AsString();
}

SiteNames LiteralNames(const Expr& call, const BuiltinSig& sig) {
  SiteNames names;
  // A wrong-arity call fails its ExpectArgs check before any name is read;
  // positional names would mis-index it.
  if (sig.arity >= 0 && call.args.size() != static_cast<size_t>(sig.arity)) {
    return names;
  }
  names.comp = LiteralStringArg(call, sig.comp_arg);
  names.field = LiteralStringArg(call, sig.field_arg);
  names.view = LiteralStringArg(call, sig.view_arg);
  names.channel = LiteralStringArg(call, sig.channel_arg);
  names.event = LiteralStringArg(call, sig.event_arg);
  names.op = LiteralStringArg(call, sig.op_arg);
  return names;
}

CalleeKind ResolveCallee(
    const std::string& name,
    const std::function<bool(const std::string&)>& is_script_fn,
    const std::function<bool(const std::string&)>& is_builtin) {
  if (is_script_fn && is_script_fn(name)) return CalleeKind::kScript;
  if (!is_builtin || is_builtin(name)) return CalleeKind::kBuiltin;
  return CalleeKind::kUnknown;
}

}  // namespace gamedb::script
