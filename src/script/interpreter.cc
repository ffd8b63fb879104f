#include "script/interpreter.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace gamedb::script {

namespace {

/// Truncates the value stack back to a mark when a call expression ends,
/// however it ends (arguments, callee frame and all).
class StackMark {
 public:
  explicit StackMark(std::vector<Value>* stack)
      : stack_(stack), mark_(stack->size()) {}
  ~StackMark() { stack_->resize(mark_); }
  StackMark(const StackMark&) = delete;
  StackMark& operator=(const StackMark&) = delete;
  size_t mark() const { return mark_; }

 private:
  std::vector<Value>* stack_;
  size_t mark_;
};

template <typename Fn>
void ForEachCall(const Expr& e, const Fn& fn) {
  if (e.kind == ExprKind::kCall) fn(e);
  for (const auto& a : e.args) ForEachCall(*a, fn);
}

template <typename Fn>
void ForEachCall(const Stmt& s, const Fn& fn) {
  if (s.expr) ForEachCall(*s.expr, fn);
  for (const auto& b : s.body) ForEachCall(*b, fn);
  for (const auto& b : s.else_body) ForEachCall(*b, fn);
}

}  // namespace

Interpreter::Interpreter(InterpreterOptions options)
    : options_(options), rng_(options.rng_seed) {}

Interpreter::~Interpreter() = default;

void Interpreter::RegisterBuiltin(const std::string& name, NativeFn fn,
                                  BindFn bind) {
  builtins_[name] = Builtin{std::move(fn), std::move(bind)};
  BindCallSites();
}

Status Interpreter::Load(Script script) {
  return LoadShared(std::make_shared<const Script>(std::move(script)));
}

Status Interpreter::LoadShared(std::shared_ptr<const Script> script) {
  GAMEDB_RETURN_NOT_OK(Analyze(
      *script, options_.restriction,
      [this](const std::string& n) { return IsBuiltin(n); }, nullptr));
  return LoadSharedPreanalyzed(std::move(script));
}

Status Interpreter::LoadSharedPreanalyzed(
    std::shared_ptr<const Script> script) {
  const Script& s = *script;
  for (const auto& [name, fn] : s.functions) {
    if (functions_.count(name)) {
      return Status::InvalidArgument("function '" + name +
                                     "' already defined by another script");
    }
  }
  auto loaded = std::make_unique<LoadedScript>();
  loaded->script = std::move(script);
  LoadedScript* owner = loaded.get();
  scripts_.push_back(std::move(loaded));
  for (const auto& [name, fn] : s.functions) {
    functions_[name] = FunctionRef(fn, owner);
  }
  for (const Stmt* h : s.handlers) {
    handlers_[h->name].push_back(FunctionRef(h, owner));
  }
  // The new functions may shadow builtins other scripts call.
  BindCallSites();

  // Run top-level statements with a fresh budget, in a frame of their own.
  fuel_remaining_ = options_.fuel_per_invocation;
  last_fuel_used_ = 0;
  Result<Flow> flow = Flow{};
  {
    StackMark mark(&stack_);
    LoadedScript* const saved_code = code_;
    const size_t saved_frame = frame_;
    code_ = owner;
    frame_ = mark.mark();
    stack_.resize(frame_ + s.frame_size);
    flow = ExecBlock(s.top_level);
    code_ = saved_code;
    frame_ = saved_frame;
  }
  last_fuel_used_ = options_.fuel_per_invocation - fuel_remaining_;
  total_fuel_used_ += last_fuel_used_;
  if (!flow.ok()) {
    // Transactional load: leave no half-registered script behind.
    UnloadLast();
  }
  return flow.status();
}

void Interpreter::UnloadLast() {
  if (scripts_.empty()) return;
  const Script& s = *scripts_.back()->script;
  for (const auto& [name, fn] : s.functions) functions_.erase(name);
  for (const Stmt* h : s.handlers) {
    auto it = handlers_.find(h->name);
    if (it == handlers_.end()) continue;
    auto& v = it->second;
    v.erase(std::remove_if(v.begin(), v.end(),
                           [h](const FunctionRef& r) { return r.decl_ == h; }),
            v.end());
    if (v.empty()) handlers_.erase(it);
  }
  scripts_.pop_back();
  BindCallSites();
}

void Interpreter::BindCallSites() {
  for (const auto& loaded : scripts_) {
    const Script& s = *loaded->script;
    std::vector<CallSlot>& slots = loaded->slots;
    slots.assign(s.call_sites, CallSlot{});
    auto bind = [&](const Expr& call) {
      BindCallSite(call, &slots[call.site]);
    };
    for (const auto& st : s.top_level) ForEachCall(*st, bind);
    for (const auto& d : s.decls) ForEachCall(*d, bind);
  }
}

void Interpreter::BindCallSite(const Expr& call, CallSlot* slot) const {
  CalleeKind kind = ResolveCallee(
      call.name,
      [this](const std::string& n) { return functions_.count(n) > 0; },
      [this](const std::string& n) { return IsBuiltin(n); });
  if (kind == CalleeKind::kScript) {
    slot->fn = functions_.find(call.name)->second;
    return;
  }
  if (kind == CalleeKind::kUnknown) return;
  const Builtin& builtin = builtins_.find(call.name)->second;
  slot->builtin = &builtin;
  if (!builtin.bind) return;
  const BuiltinSig* sig = FindBuiltinSig(call.name);
  if (sig == nullptr) return;
  SiteNames& names = slot->site.names;
  names = LiteralNames(call, *sig);
  auto mark = [slot](const std::string* name, int arg) {
    if (name != nullptr) slot->bound_args |= 1u << arg;
  };
  mark(names.comp, sig->comp_arg);
  mark(names.field, sig->field_arg);
  mark(names.view, sig->view_arg);
  mark(names.channel, sig->channel_arg);
  mark(names.event, sig->event_arg);
  mark(names.op, sig->op_arg);
  builtin.bind(&slot->site);
}

bool Interpreter::HasFunction(const std::string& fn) const {
  return functions_.count(fn) > 0;
}

Interpreter::FunctionRef Interpreter::FindFunction(
    const std::string& fn) const {
  auto it = functions_.find(fn);
  return it == functions_.end() ? FunctionRef() : it->second;
}

Result<Value> Interpreter::Invoke(FunctionRef fn, size_t args_base,
                                  int line) {
  fuel_remaining_ = options_.fuel_per_invocation;
  last_fuel_used_ = 0;
  Result<Value> out = CallScriptFunction(fn, args_base, line);
  last_fuel_used_ = options_.fuel_per_invocation - fuel_remaining_;
  total_fuel_used_ += last_fuel_used_;
  return out;
}

Result<Value> Interpreter::Call(FunctionRef fn, ArgSpan args) {
  GAMEDB_DCHECK(fn);
  StackMark mark(&stack_);
  for (const Value& v : args) stack_.push_back(v);
  return Invoke(fn, mark.mark(), 0);
}

Result<Value> Interpreter::Call(const std::string& fn,
                                std::vector<Value> args) {
  FunctionRef ref = FindFunction(fn);
  if (!ref) {
    return Status::NotFound("no script function '" + fn + "'");
  }
  return Call(ref, ArgSpan(args.data(), args.size()));
}

Status Interpreter::FireEvent(const std::string& event,
                              const std::vector<Value>& args,
                              size_t* completed) {
  if (completed != nullptr) *completed = 0;
  auto it = handlers_.find(event);
  if (it == handlers_.end()) return Status::OK();
  for (const FunctionRef& h : it->second) {
    StackMark mark(&stack_);
    for (const Value& v : args) stack_.push_back(v);
    Result<Value> r = Invoke(h, mark.mark(), h.decl_->line);
    if (!r.ok()) return r.status();
    if (completed != nullptr) ++*completed;
  }
  return Status::OK();
}

size_t Interpreter::HandlerCount(const std::string& event) const {
  auto it = handlers_.find(event);
  return it == handlers_.end() ? 0 : it->second.size();
}

void Interpreter::SetGlobal(const std::string& name, Value v) {
  globals_[name] = std::move(v);
}

Result<Value> Interpreter::GetGlobal(const std::string& name) const {
  auto it = globals_.find(name);
  if (it == globals_.end()) {
    return Status::NotFound("no global '" + name + "'");
  }
  return it->second;
}

Status Interpreter::Charge(uint64_t amount, int line) {
  if (fuel_remaining_ < amount) {
    fuel_remaining_ = 0;
    return Status::ResourceExhausted(
        StringFormat("script fuel exhausted at line %d", line));
  }
  fuel_remaining_ -= amount;
  return Status::OK();
}

Result<Value> Interpreter::CallScriptFunction(FunctionRef fn,
                                              size_t args_base, int line) {
  const Stmt& decl = *fn.decl_;
  if (call_depth_ >= options_.max_call_depth) {
    return Status::ResourceExhausted(
        StringFormat("line %d: call depth limit (%u) exceeded in '%s'", line,
                     options_.max_call_depth, decl.name.c_str()));
  }
  const size_t nargs = stack_.size() - args_base;
  if (nargs != decl.params.size()) {
    return Status::InvalidArgument(StringFormat(
        "line %d: '%s' expects %zu args, got %zu", line, decl.name.c_str(),
        decl.params.size(), nargs));
  }
  ++call_depth_;
  LoadedScript* const saved_code = code_;
  const size_t saved_frame = frame_;
  code_ = fn.owner_;
  frame_ = args_base;  // the arguments are the parameter slots
  stack_.resize(args_base + decl.frame_size);
  Result<Flow> flow = ExecBlock(decl.body);
  code_ = saved_code;
  frame_ = saved_frame;
  --call_depth_;
  if (!flow.ok()) return flow.status();
  if (flow->kind == Flow::kReturn) return std::move(flow->value);
  return Value::Nil();
}

Result<Interpreter::Flow> Interpreter::ExecBlock(
    const std::vector<std::unique_ptr<Stmt>>& body) {
  for (const auto& s : body) {
    GAMEDB_ASSIGN_OR_RETURN(Flow flow, Exec(*s));
    if (flow.kind != Flow::kNormal) return flow;
  }
  return Flow{};
}

Result<Interpreter::Flow> Interpreter::Exec(const Stmt& s) {
  GAMEDB_RETURN_NOT_OK(Charge(1, s.line));
  switch (s.kind) {
    case StmtKind::kLet: {
      GAMEDB_ASSIGN_OR_RETURN(Value v, Eval(*s.expr));
      if (s.slot == kNoSlot) {
        globals_[s.name] = std::move(v);
      } else {
        Local(s.slot) = std::move(v);
      }
      return Flow{};
    }
    case StmtKind::kAssign: {
      GAMEDB_ASSIGN_OR_RETURN(Value v, Eval(*s.expr));
      if (s.slot != kNoSlot) {
        Local(s.slot) = std::move(v);
        return Flow{};
      }
      auto it = globals_.find(s.name);
      if (it == globals_.end()) {
        return Status::InvalidArgument(
            StringFormat("line %d: assignment to undeclared variable '%s' "
                         "(use 'let')",
                         s.line, s.name.c_str()));
      }
      it->second = std::move(v);
      return Flow{};
    }
    case StmtKind::kExpr: {
      GAMEDB_ASSIGN_OR_RETURN(Value v, Eval(*s.expr));
      (void)v;
      return Flow{};
    }
    case StmtKind::kIf: {
      GAMEDB_ASSIGN_OR_RETURN(Value cond, Eval(*s.expr));
      return cond.Truthy() ? ExecBlock(s.body) : ExecBlock(s.else_body);
    }
    case StmtKind::kWhile: {
      while (true) {
        GAMEDB_RETURN_NOT_OK(Charge(1, s.line));
        GAMEDB_ASSIGN_OR_RETURN(Value cond, Eval(*s.expr));
        if (!cond.Truthy()) break;
        GAMEDB_ASSIGN_OR_RETURN(Flow flow, ExecBlock(s.body));
        if (flow.kind == Flow::kReturn) return flow;
        if (flow.kind == Flow::kBreak) break;
      }
      return Flow{};
    }
    case StmtKind::kForeach: {
      GAMEDB_ASSIGN_OR_RETURN(Value iterable, Eval(*s.expr));
      if (!iterable.IsList()) {
        return Status::InvalidArgument(
            StringFormat("line %d: foreach expects a list, got %s", s.line,
                         iterable.TypeName()));
      }
      // Iterate over a snapshot so handlers can mutate the source list.
      std::vector<Value> items = *iterable.AsList();
      for (Value& item : items) {
        GAMEDB_RETURN_NOT_OK(Charge(1, s.line));
        Local(s.slot) = item;
        GAMEDB_ASSIGN_OR_RETURN(Flow flow, ExecBlock(s.body));
        if (flow.kind == Flow::kReturn) return flow;
        if (flow.kind == Flow::kBreak) break;
      }
      return Flow{};
    }
    case StmtKind::kReturn: {
      Flow flow;
      flow.kind = Flow::kReturn;
      if (s.expr) {
        GAMEDB_ASSIGN_OR_RETURN(flow.value, Eval(*s.expr));
      }
      return flow;
    }
    case StmtKind::kBreak:
      return Flow{Flow::kBreak, Value::Nil()};
    case StmtKind::kContinue:
      return Flow{Flow::kContinue, Value::Nil()};
    case StmtKind::kFn:
    case StmtKind::kOn:
      return Status::InvalidArgument("declaration in statement position");
  }
  return Status::InvalidArgument("unknown statement kind");
}

Result<Value> Interpreter::EvalCall(const Expr& e) {
  CallSlot& slot = code_->slots[e.site];
  StackMark mark(&stack_);
  for (size_t i = 0; i < e.args.size(); ++i) {
    const Expr& arg = *e.args[i];
    if (slot.bound_args & (1u << i)) {
      // A literal name the load step bound: charged like the literal it
      // is, passed as nil (the builtin reads it from its SiteBinding).
      GAMEDB_RETURN_NOT_OK(Charge(1, arg.line));
      stack_.emplace_back();
      continue;
    }
    GAMEDB_ASSIGN_OR_RETURN(Value v, Eval(arg));
    stack_.push_back(std::move(v));
  }
  if (slot.fn) return CallScriptFunction(slot.fn, mark.mark(), e.line);
  if (slot.builtin == nullptr) {
    return Status::InvalidArgument(StringFormat(
        "line %d: unknown function '%s'", e.line, e.name.c_str()));
  }
  // The slot is this interpreter's own; builtins may refresh its binding.
  Result<Value> r = slot.builtin->fn(
      ArgSpan(stack_.data() + mark.mark(), e.args.size()), slot.site, *this);
  if (!r.ok()) {
    // Attach the call site, preserving the error code (fuel
    // exhaustion must stay ResourceExhausted, etc).
    return Status::FromCode(r.status().code(),
                            StringFormat("line %d: %s: %s", e.line,
                                         e.name.c_str(),
                                         r.status().message().c_str()));
  }
  return r;
}

Result<Value> Interpreter::Eval(const Expr& e) {
  GAMEDB_RETURN_NOT_OK(Charge(1, e.line));
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kVar: {
      if (e.slot != kNoSlot) return Local(e.slot);
      auto it = globals_.find(e.name);
      if (it == globals_.end()) {
        return Status::InvalidArgument(StringFormat(
            "line %d: undefined variable '%s'", e.line, e.name.c_str()));
      }
      return it->second;
    }
    case ExprKind::kList: {
      std::vector<Value> items;
      items.reserve(e.args.size());
      for (const auto& a : e.args) {
        GAMEDB_ASSIGN_OR_RETURN(Value v, Eval(*a));
        items.push_back(std::move(v));
      }
      return Value::NewList(std::move(items));
    }
    case ExprKind::kUnary: {
      GAMEDB_ASSIGN_OR_RETURN(Value v, Eval(*e.args[0]));
      if (e.op == TokenType::kMinus) {
        GAMEDB_ASSIGN_OR_RETURN(double d, v.ToNumber());
        return Value(-d);
      }
      return Value(!v.Truthy());  // not
    }
    case ExprKind::kBinary: {
      // Short-circuit logical operators.
      if (e.op == TokenType::kAnd || e.op == TokenType::kOr) {
        GAMEDB_ASSIGN_OR_RETURN(Value lhs, Eval(*e.args[0]));
        bool lt = lhs.Truthy();
        if (e.op == TokenType::kAnd && !lt) return Value(false);
        if (e.op == TokenType::kOr && lt) return Value(true);
        GAMEDB_ASSIGN_OR_RETURN(Value rhs, Eval(*e.args[1]));
        return Value(rhs.Truthy());
      }
      GAMEDB_ASSIGN_OR_RETURN(Value lhs, Eval(*e.args[0]));
      GAMEDB_ASSIGN_OR_RETURN(Value rhs, Eval(*e.args[1]));
      switch (e.op) {
        case TokenType::kEq:
          return Value(lhs.Equals(rhs));
        case TokenType::kNe:
          return Value(!lhs.Equals(rhs));
        case TokenType::kPlus:
          if (lhs.IsString() || rhs.IsString()) {
            return Value(lhs.ToString() + rhs.ToString());
          }
          if (lhs.IsVec3() && rhs.IsVec3()) {
            return Value(lhs.AsVec3() + rhs.AsVec3());
          }
          break;
        case TokenType::kMinus:
          if (lhs.IsVec3() && rhs.IsVec3()) {
            return Value(lhs.AsVec3() - rhs.AsVec3());
          }
          break;
        case TokenType::kStar:
          if (lhs.IsVec3() && rhs.IsNumber()) {
            return Value(lhs.AsVec3() * static_cast<float>(rhs.AsNumber()));
          }
          break;
        default:
          break;
      }
      GAMEDB_ASSIGN_OR_RETURN(double a, lhs.ToNumber());
      GAMEDB_ASSIGN_OR_RETURN(double b, rhs.ToNumber());
      switch (e.op) {
        case TokenType::kPlus:
          return Value(a + b);
        case TokenType::kMinus:
          return Value(a - b);
        case TokenType::kStar:
          return Value(a * b);
        case TokenType::kSlash:
          if (b == 0.0) {
            return Status::InvalidArgument(
                StringFormat("line %d: division by zero", e.line));
          }
          return Value(a / b);
        case TokenType::kPercent:
          if (b == 0.0) {
            return Status::InvalidArgument(
                StringFormat("line %d: modulo by zero", e.line));
          }
          return Value(std::fmod(a, b));
        case TokenType::kLt:
          return Value(a < b);
        case TokenType::kLe:
          return Value(a <= b);
        case TokenType::kGt:
          return Value(a > b);
        case TokenType::kGe:
          return Value(a >= b);
        default:
          return Status::InvalidArgument("bad binary operator");
      }
    }
    case ExprKind::kCall:
      return EvalCall(e);
  }
  return Status::InvalidArgument("unknown expression kind");
}

}  // namespace gamedb::script
