// Load-time call-site resolution: every call site's callee and literal
// schema names are bound once per load. These cases pin that the bound
// path behaves exactly like the by-name path it replaces — re-registration,
// shadowing, unload/reload, computed names, catalog changes and error
// messages.

#include <gtest/gtest.h>

#include "core/reflect.h"
#include "script/bindings.h"
#include "script/builtins.h"
#include "script/parser.h"
#include "views/maintainer.h"

namespace gamedb::script {
namespace {

class CallSiteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardComponents();
    RegisterCoreBuiltins(&interp);
    BindWorld(&interp, &world, &effects, /*shard=*/0);
    BindViews(&interp, &catalog);
    for (int i = 0; i < 3; ++i) {
      EntityId e = world.Create();
      world.Set(e, Health{float(i + 1) * 10, 100});
      ids.push_back(e);
    }
  }

  Status Load(std::string_view src) {
    auto parsed = Parse(src);
    if (!parsed.ok()) return parsed.status();
    return interp.Load(std::move(*parsed));
  }

  Status RegisterWounded() {
    views::ViewDef def;
    def.name = "wounded";
    def.where = {{"Health", "hp", CmpOp::kLt, 25.0}};
    return catalog.Register(def).status();
  }

  double Number(const std::string& fn, std::vector<Value> args = {}) {
    auto r = interp.Call(fn, std::move(args));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->IsNumber() ? r->AsNumber() : -1.0;
  }

  std::string ErrorOf(const std::string& fn, std::vector<Value> args = {}) {
    auto r = interp.Call(fn, std::move(args));
    EXPECT_FALSE(r.ok());
    return r.ok() ? std::string() : r.status().message();
  }

  World world;
  ScriptEffects effects{1};
  views::ViewCatalog catalog{&world};
  Interpreter interp;
  std::vector<EntityId> ids;
};

TEST_F(CallSiteTest, RegisterBuiltinAfterLoadReplacesTheCallee) {
  ASSERT_TRUE(Load("fn f() { return abs(-2) }\n"
                   "fn hp(e) { return get(e, \"Health\", \"hp\") }")
                  .ok());
  EXPECT_DOUBLE_EQ(Number("f"), 2.0);
  EXPECT_DOUBLE_EQ(Number("hp", {Value(ids[0])}), 10.0);

  interp.RegisterBuiltin(
      "abs", [](ArgSpan, SiteBinding&, Interpreter&) -> Result<Value> {
        return Value(42.0);
      });
  EXPECT_DOUBLE_EQ(Number("f"), 42.0);

  // A replacement without a binder receives the literal names as values
  // again (the old binding is dropped with the old callee).
  interp.RegisterBuiltin(
      "get",
      [](ArgSpan args, SiteBinding& site, Interpreter&) -> Result<Value> {
        EXPECT_EQ(site.type, nullptr);
        return Value(args[1].AsString() + "." + args[2].AsString());
      });
  auto r = interp.Call("hp", {Value(ids[0])});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->AsString(), "Health.hp");
}

TEST_F(CallSiteTest, ScriptFunctionShadowsBuiltin) {
  ASSERT_TRUE(Load("fn max(a, b) { return 7 }\n"
                   "fn pick() { return max(1, 2) }")
                  .ok());
  EXPECT_DOUBLE_EQ(Number("pick"), 7.0);

  // A later script's function shadows the builtin an earlier script calls;
  // unloading it restores the builtin at that call site.
  ASSERT_TRUE(Load("fn twice(x) { return abs(x) * 2 }").ok());
  EXPECT_DOUBLE_EQ(Number("twice", {Value(-3.0)}), 6.0);
  ASSERT_TRUE(Load("fn abs(x) { return 100 }").ok());
  EXPECT_DOUBLE_EQ(Number("twice", {Value(-3.0)}), 200.0);
  interp.UnloadLast();
  EXPECT_DOUBLE_EQ(Number("twice", {Value(-3.0)}), 6.0);
}

TEST_F(CallSiteTest, UnloadLastThenReload) {
  ASSERT_TRUE(Load("fn base() { return abs(-1) }").ok());
  ASSERT_TRUE(Load("fn top() { return helper() + 10 }\n"
                   "fn helper() { return 1 }\n"
                   "fn hp(e) { return get(e, \"Health\", \"hp\") }")
                  .ok());
  EXPECT_DOUBLE_EQ(Number("top"), 11.0);
  EXPECT_DOUBLE_EQ(Number("hp", {Value(ids[1])}), 20.0);
  interp.UnloadLast();
  EXPECT_FALSE(interp.HasFunction("top"));
  EXPECT_TRUE(interp.Call("top", {}).status().IsNotFound());

  ASSERT_TRUE(Load("fn top() { return helper() + 20 }\n"
                   "fn helper() { return 2 }\n"
                   "fn hp(e) { return get(e, \"Health\", \"max_hp\") }")
                  .ok());
  EXPECT_DOUBLE_EQ(Number("top"), 22.0);
  EXPECT_DOUBLE_EQ(Number("hp", {Value(ids[1])}), 100.0);
  // The earlier script's sites still resolve after the churn.
  EXPECT_DOUBLE_EQ(Number("base"), 1.0);
}

TEST_F(CallSiteTest, ComputedNamesResolveAtRunTime) {
  ASSERT_TRUE(RegisterWounded().ok());
  ASSERT_TRUE(Load("fn read(e, c, f) { return get(e, c, f) }\n"
                   "fn glued(e) { return get(e, \"Hea\" + \"lth\", \"h\" + "
                   "\"p\") }\n"
                   "fn owns(e, c) { return has(e, c) }\n"
                   "fn hurt(ch, e) { emit(ch, e, 5) }\n"
                   "fn n(v) { return view_count(v) }\n"
                   "fn in_view(v, e) { return view_contains(v, e) }")
                  .ok());
  EXPECT_DOUBLE_EQ(Number("read", {Value(ids[2]), Value("Health"),
                                   Value("max_hp")}),
                   100.0);
  EXPECT_DOUBLE_EQ(Number("glued", {Value(ids[1])}), 20.0);
  auto owns = interp.Call("owns", {Value(ids[0]), Value("Combat")});
  ASSERT_TRUE(owns.ok());
  EXPECT_FALSE(owns->AsBool());

  EXPECT_FALSE(effects.HasChannel("runtime_dmg"));
  ASSERT_TRUE(interp.Call("hurt", {Value("runtime_dmg"), Value(ids[0])}).ok());
  EXPECT_TRUE(effects.HasChannel("runtime_dmg"));
  EXPECT_EQ(effects.contribution_count(), 1u);

  EXPECT_DOUBLE_EQ(Number("n", {Value("wounded")}), 2.0);
  auto in = interp.Call("in_view", {Value("wounded"), Value(ids[2])});
  ASSERT_TRUE(in.ok());
  EXPECT_FALSE(in->AsBool());
  EXPECT_EQ(ErrorOf("n", {Value("nope")}),
            "line 5: view_count: view_count: no view named 'nope'");
}

TEST_F(CallSiteTest, UnregisteredViewIsNotFoundAndReRegisteredViewRebinds) {
  ASSERT_TRUE(RegisterWounded().ok());
  ASSERT_TRUE(Load("fn n() { return view_count(\"wounded\") }\n"
                   "fn members() { return view_members(\"wounded\") }")
                  .ok());
  EXPECT_DOUBLE_EQ(Number("n"), 2.0);

  ASSERT_TRUE(catalog.Unregister("wounded"));
  auto gone = interp.Call("n", {});
  ASSERT_FALSE(gone.ok());
  EXPECT_TRUE(gone.status().IsNotFound());
  EXPECT_EQ(gone.status().message(),
            "line 1: view_count: view_count: no view named 'wounded'");
  EXPECT_TRUE(interp.Call("members", {}).status().IsNotFound());

  // A view registered under the name later is picked up without a reload.
  views::ViewDef def;
  def.name = "wounded";
  def.where = {{"Health", "hp", CmpOp::kLt, 15.0}};
  ASSERT_TRUE(catalog.Register(def).ok());
  EXPECT_DOUBLE_EQ(Number("n"), 1.0);
}

TEST_F(CallSiteTest, ViewRegisteredAfterLoadIsFound) {
  ASSERT_TRUE(Load("fn n() { return view_count(\"wounded\") }").ok());
  EXPECT_TRUE(interp.Call("n", {}).status().IsNotFound());
  ASSERT_TRUE(RegisterWounded().ok());
  EXPECT_DOUBLE_EQ(Number("n"), 2.0);
}

TEST_F(CallSiteTest, LiteralChannelIsBoundAtLoad) {
  ASSERT_TRUE(Load("fn hit(e) { emit(\"damage\", e, 3) }").ok());
  EXPECT_TRUE(effects.HasChannel("damage"));
  ASSERT_TRUE(interp.Call("hit", {Value(ids[0])}).ok());
  ASSERT_TRUE(interp.Call("hit", {Value(ids[0])}).ok());
  double total = 0;
  effects.Drain("damage", [&](EntityId, double v) { total += v; });
  EXPECT_DOUBLE_EQ(total, 6.0);
}

// The messages (and line numbers) of run-time errors are those of the
// by-name path, whether the names were literals bound at load or not.
TEST_F(CallSiteTest, RuntimeErrorMessagesAreUnchanged) {
  ASSERT_TRUE(Load("fn bad_comp(e) { return get(e, \"Bogus\", \"hp\") }\n"
                   "fn bad_field(e) {\n"
                   "  return get(e, \"Health\", \"bogus\")\n"
                   "}\n"
                   "fn absent(e) { return get(e, \"Combat\", \"attack\") }\n"
                   "fn not_string(e) { return get(e, 5, \"hp\") }\n"
                   "fn arity(e) { return get(e, \"Health\") }\n"
                   "fn set_absent(e) { set(e, \"Combat\", \"attack\", 1) }\n"
                   "fn set_type(e) { set(e, \"Health\", \"hp\", \"x\") }\n"
                   "fn has_bogus(e) { return has(e, \"Bogus\") }\n"
                   "fn emit_type(e) { emit(\"damage\", 1, 2) }\n"
                   "fn calls(e) { return bad_comp(e, 1) }\n"
                   "fn undefined_var() { return zz }\n"
                   "fn view_type() { return view_count(3) }")
                  .ok());
  const Value e(ids[0]);
  EXPECT_EQ(ErrorOf("bad_comp", {e}),
            "line 1: get: unknown component 'Bogus'");
  EXPECT_EQ(ErrorOf("bad_field", {e}),
            "line 3: get: component 'Health' has no field 'bogus'");
  EXPECT_EQ(ErrorOf("absent", {e}), "line 5: get: entity has no 'Combat'");
  EXPECT_EQ(ErrorOf("not_string", {e}),
            "line 6: get: arg 2 must be a string: get");
  EXPECT_EQ(ErrorOf("arity", {e}),
            "line 7: get: expected 3 args: get(e, \"Comp\", \"field\")");
  EXPECT_EQ(ErrorOf("set_absent", {e}), "line 8: set: entity has no 'Combat'");
  EXPECT_EQ(ErrorOf("set_type", {e}).rfind("line 9: set: ", 0), 0u);
  EXPECT_EQ(ErrorOf("has_bogus", {e}),
            "line 10: has: unknown component 'Bogus'");
  EXPECT_EQ(
      ErrorOf("emit_type", {e}),
      "line 11: emit: arg 2 must be an entity: emit(\"channel\", target, "
      "amount)");
  EXPECT_EQ(ErrorOf("calls", {e}), "line 12: 'bad_comp' expects 1 args, got 2");
  EXPECT_EQ(ErrorOf("undefined_var"), "line 13: undefined variable 'zz'");
  EXPECT_EQ(ErrorOf("view_type"),
            "line 14: view_count: arg 1 must be a string: view_count");
}

// A script loaded without analysis may call a name nothing defines; the
// call site stays unresolved until something registers the name.
TEST_F(CallSiteTest, UnknownFunctionResolvesOnceRegistered) {
  auto parsed = Parse("fn f() { return later(1) }");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(interp
                  .LoadSharedPreanalyzed(
                      std::make_shared<const Script>(std::move(*parsed)))
                  .ok());
  EXPECT_EQ(ErrorOf("f"), "line 1: unknown function 'later'");
  interp.RegisterBuiltin(
      "later", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        return Value(args[0].AsNumber() + 1);
      });
  EXPECT_DOUBLE_EQ(Number("f"), 2.0);
}

// Block scoping survives the move from per-block name maps to frame
// slots: shadowing, per-iteration re-declaration, and globals.
TEST_F(CallSiteTest, FrameSlotsKeepBlockScoping) {
  ASSERT_TRUE(Load("let g = 5\n"
                   "fn shadow() {\n"
                   "  let x = 1\n"
                   "  if true { let x = 2  g = g + x }\n"
                   "  return x * 100 + g\n"
                   "}\n"
                   "fn loop() {\n"
                   "  let total = 0\n"
                   "  foreach v in [1, 2, 3] { let sq = v * v  total = total "
                   "+ sq }\n"
                   "  let i = 0\n"
                   "  while i < 3 { let step = 1  i = i + step }\n"
                   "  return total * 10 + i\n"
                   "}\n"
                   "fn rec(n) { if n == 0 { return 0 } let m = n\n"
                   "  return m + rec(n - 1) }")
                  .ok());
  EXPECT_DOUBLE_EQ(Number("shadow"), 107.0);
  EXPECT_DOUBLE_EQ(interp.GetGlobal("g")->AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(Number("loop"), 143.0);
  EXPECT_DOUBLE_EQ(Number("rec", {Value(10.0)}), 55.0);
}

}  // namespace
}  // namespace gamedb::script
