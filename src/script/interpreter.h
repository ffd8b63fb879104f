#pragma once

/// \file interpreter.h
/// Tree-walking GSL interpreter with *fuel accounting*: every AST node
/// evaluated burns one unit of fuel and the interpreter hard-stops with
/// ResourceExhausted when the per-invocation budget is gone. Fuel is how a
/// game engine keeps a designer's script from eating the frame — and the
/// metric E10 reports.
///
/// Paper: the game-scripting-languages section — SGL-style declarative
/// scripting for designers, with the industry practice of restricting
/// language power (analyzer.h) to bound per-frame cost.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "script/analyzer.h"
#include "script/ast.h"
#include "script/resolve.h"
#include "script/value.h"

namespace gamedb {
class TypeInfo;
class FieldInfo;
template <typename V>
class Effect;
namespace views {
class LiveView;
}  // namespace views
}  // namespace gamedb

namespace gamedb::script {

class Interpreter;

/// The arguments of one native builtin call: a window onto the
/// interpreter's value stack, valid until the builtin returns. A builtin
/// must not re-enter its interpreter (Call / FireEvent) while it still
/// reads `args` — the stack may move. (fire() only queues, so none does.)
class ArgSpan {
 public:
  ArgSpan() = default;
  ArgSpan(Value* data, size_t size) : data_(data), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Value& operator[](size_t i) const { return data_[i]; }
  Value* begin() const { return data_; }
  Value* end() const { return data_ + size_; }

 private:
  Value* data_ = nullptr;
  size_t size_ = 0;
};

/// What one interpreter resolved, at load, for one builtin call site.
///
/// `names` are the call's literal schema-name arguments, as the shared
/// resolver (resolve.h) reads them off the AST. A builtin registered with a
/// BindFn is *schema-aware*: it receives those arguments through `names`
/// instead of as values (their ArgSpan slots hold nil, so no string is
/// copied per call), and its BindFn turns them into the pointers below once
/// per load. Every null pointer leaves that name to the builtin's run-time
/// by-name path, which also serves computed (non-literal) names and keeps
/// the error messages of unresolvable literals unchanged.
///
/// Each interpreter owns its bindings, so a builtin may refresh one from
/// the shard it runs on (view_* re-resolve when the catalog changed).
struct SiteBinding {
  SiteNames names;
  const TypeInfo* type = nullptr;     ///< names.comp
  const FieldInfo* field = nullptr;   ///< names.field of `type`
  Effect<double>* channel = nullptr;  ///< names.channel
  const views::LiveView* view = nullptr;  ///< names.view ...
  uint64_t view_generation = 0;  ///< ... as of this catalog generation
};

/// Native (C++-implemented) builtin function.
using NativeFn =
    std::function<Result<Value>(ArgSpan args, SiteBinding& site,
                                Interpreter& interp)>;

/// Load-time binder of a schema-aware builtin (see SiteBinding): fills the
/// binding's pointers from its `names`.
using BindFn = std::function<void(SiteBinding* site)>;

/// Interpreter configuration.
struct InterpreterOptions {
  /// Fuel budget per top-level invocation (Run / CallFunction / event
  /// dispatch). ~1 unit per AST node touched.
  uint64_t fuel_per_invocation = 1'000'000;
  /// Maximum script-function call depth.
  uint32_t max_call_depth = 64;
  /// Restriction level scripts must satisfy at load.
  Restriction restriction = Restriction::kFull;
  /// Seed for the script-visible random() builtin.
  uint64_t rng_seed = 0xC0FFEE;
};

/// Executes loaded GSL scripts.
///
/// Typical host flow:
///   Interpreter interp(opts);
///   RegisterCoreBuiltins(&interp);            // builtins.h
///   BindWorld(&interp, &world, &effects);     // bindings.h
///   auto script = Parse(source);              // parser.h
///   interp.Load(std::move(*script));          // analyzes + runs top level
///   interp.Call("tick", {Value(dt)});
///
/// Names are resolved once per load, not per call. The parser gives every
/// local variable a frame slot (ast.h); loading gives every call site a
/// slot holding its callee — script function or builtin — and, for
/// schema-aware builtins, the SiteBinding of its literal names. Locals,
/// call arguments and parameters live on one value stack that is reused
/// across calls, so a warm call path allocates nothing. Only globals and
/// computed schema names are still looked up by name when executed.
class Interpreter {
  struct LoadedScript;

 public:
  explicit Interpreter(InterpreterOptions options = {});
  ~Interpreter();
  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Registers a native builtin; `bind`, when given, makes it
  /// schema-aware (see SiteBinding). Re-registering a name replaces it,
  /// at the call sites of already-loaded scripts too. Like Load and
  /// UnloadLast it re-binds every call site, so none of the three may run
  /// from inside a builtin.
  void RegisterBuiltin(const std::string& name, NativeFn fn,
                       BindFn bind = nullptr);
  bool IsBuiltin(const std::string& name) const {
    return builtins_.count(name) > 0;
  }

  /// Analyzes the script under the configured restriction, then executes its
  /// top-level statements (which typically just set globals). The script is
  /// owned by the interpreter afterwards; its functions and handlers become
  /// callable.
  Status Load(Script script);

  /// Like Load, but shares an already-parsed script. The AST is immutable
  /// during execution, so a ScriptHost parses a behavior once and loads the
  /// same Script into every per-shard interpreter (each still runs its own
  /// copy of the top-level statements to populate its globals, and binds
  /// its own call-site slots).
  ///
  /// Loading is transactional: if the top-level statements error, the
  /// script's functions and handlers are unregistered again, so a corrected
  /// script can be re-loaded without "already defined" failures. (Globals a
  /// partially-run top level already set do persist.)
  Status LoadShared(std::shared_ptr<const Script> script);

  /// Like LoadShared but skips static analysis. Only for hosts loading one
  /// shared script into many interpreters whose restriction level and
  /// builtin set are identical to an interpreter that already analyzed it
  /// (analysis depends on nothing else); the ScriptHost analyzes on shard 0
  /// and reuses the verdict for shards 1..N-1.
  Status LoadSharedPreanalyzed(std::shared_ptr<const Script> script);

  /// Unregisters the most recently loaded script's functions and handlers
  /// (globals persist). No-op when nothing is loaded. Lets hosts roll back
  /// a multi-interpreter load that failed partway, and enables hot-reload.
  void UnloadLast();

  /// A script function resolved by name once (FindFunction). Valid until
  /// the script that defines it is unloaded.
  class FunctionRef {
   public:
    FunctionRef() = default;
    explicit operator bool() const { return decl_ != nullptr; }

   private:
    friend class Interpreter;
    FunctionRef(const Stmt* decl, LoadedScript* owner)
        : decl_(decl), owner_(owner) {}
    const Stmt* decl_ = nullptr;
    LoadedScript* owner_ = nullptr;
  };

  /// Resolves a script function by name; an empty ref when there is none.
  FunctionRef FindFunction(const std::string& fn) const;
  /// Calls a resolved script function (`fn` must be non-empty). The
  /// arguments are copied onto the value stack; no allocation once warm.
  Result<Value> Call(FunctionRef fn, ArgSpan args);
  /// Calls a script function by name.
  Result<Value> Call(const std::string& fn, std::vector<Value> args);
  bool HasFunction(const std::string& fn) const;

  /// Dispatches an event to every loaded `on <event>(...)` handler, in load
  /// order. Each handler gets a fresh fuel budget. Stops at and returns the
  /// first error. When `completed` is non-null it receives the number of
  /// handler invocations that ran to completion (the erroring handler and
  /// any handlers after it are not counted).
  Status FireEvent(const std::string& event, const std::vector<Value>& args,
                   size_t* completed = nullptr);
  /// Number of handlers registered for an event.
  size_t HandlerCount(const std::string& event) const;

  // --- Globals (host <-> script data exchange) ---------------------------
  void SetGlobal(const std::string& name, Value v);
  Result<Value> GetGlobal(const std::string& name) const;

  // --- Fuel accounting ----------------------------------------------------
  /// Fuel burned by the most recent invocation.
  uint64_t last_fuel_used() const { return last_fuel_used_; }
  /// Total fuel burned over the interpreter's lifetime.
  uint64_t total_fuel_used() const { return total_fuel_used_; }

  /// Script-visible RNG (used by the random() builtin; deterministic).
  Rng& rng() { return rng_; }

  const InterpreterOptions& options() const { return options_; }

  /// Output lines captured from print() (tests and tools read these).
  const std::vector<std::string>& output() const { return output_; }
  void ClearOutput() { output_.clear(); }
  void AppendOutput(std::string line) { output_.push_back(std::move(line)); }

 private:
  struct Flow {
    enum Kind : uint8_t { kNormal, kReturn, kBreak, kContinue } kind = kNormal;
    Value value;
  };
  struct Builtin {
    NativeFn fn;
    BindFn bind;
  };
  /// One call site's load-time resolution (indexed by Expr::site).
  struct CallSlot {
    FunctionRef fn;                    ///< script callee, or
    const Builtin* builtin = nullptr;  ///< native callee (neither: unknown)
    uint32_t bound_args = 0;  ///< bit i: arg i arrives via site.names
    SiteBinding site;
  };
  struct LoadedScript {
    std::shared_ptr<const Script> script;
    std::vector<CallSlot> slots;
  };

  /// Re-resolves every call site of every loaded script; runs whenever the
  /// name tables change (load, unload, builtin registration).
  void BindCallSites();
  void BindCallSite(const Expr& call, CallSlot* slot) const;

  /// One invocation from the host: fresh fuel budget, fuel bookkeeping.
  Result<Value> Invoke(FunctionRef fn, size_t args_base, int line);

  Status Charge(uint64_t amount, int line);
  Result<Value> Eval(const Expr& e);
  Result<Value> EvalCall(const Expr& e);
  Result<Flow> Exec(const Stmt& s);
  Result<Flow> ExecBlock(const std::vector<std::unique_ptr<Stmt>>& body);
  /// Runs `fn` with its arguments at stack_[args_base..]; the frame starts
  /// there. The caller truncates the stack back to args_base afterwards.
  Result<Value> CallScriptFunction(FunctionRef fn, size_t args_base,
                                   int line);

  Value& Local(uint32_t slot) { return stack_[frame_ + slot]; }

  InterpreterOptions options_;
  std::vector<std::unique_ptr<LoadedScript>> scripts_;
  std::unordered_map<std::string, FunctionRef> functions_;
  std::unordered_map<std::string, std::vector<FunctionRef>> handlers_;
  std::unordered_map<std::string, Builtin> builtins_;
  std::unordered_map<std::string, Value> globals_;

  /// Frames (parameters first, then locals) and in-flight call arguments.
  std::vector<Value> stack_;
  size_t frame_ = 0;              ///< base of the executing frame
  LoadedScript* code_ = nullptr;  ///< script whose code is executing
  uint32_t call_depth_ = 0;
  uint64_t fuel_remaining_ = 0;
  uint64_t last_fuel_used_ = 0;
  uint64_t total_fuel_used_ = 0;
  Rng rng_;
  std::vector<std::string> output_;
};

}  // namespace gamedb::script
