#include "script/parser.h"

#include <gtest/gtest.h>

namespace gamedb::script {
namespace {

Script MustParse(std::string_view src) {
  auto r = Parse(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ParserTest, TopLevelStatements) {
  Script s = MustParse("let x = 1\nx = x + 1\nprint(x)");
  ASSERT_EQ(s.top_level.size(), 3u);
  EXPECT_EQ(s.top_level[0]->kind, StmtKind::kLet);
  EXPECT_EQ(s.top_level[1]->kind, StmtKind::kAssign);
  EXPECT_EQ(s.top_level[2]->kind, StmtKind::kExpr);
  EXPECT_EQ(s.top_level[2]->expr->kind, ExprKind::kCall);
}

TEST(ParserTest, OperatorPrecedence) {
  Script s = MustParse("let x = 1 + 2 * 3");
  const Expr& root = *s.top_level[0]->expr;
  ASSERT_EQ(root.kind, ExprKind::kBinary);
  EXPECT_EQ(root.op, TokenType::kPlus);
  EXPECT_EQ(root.args[1]->op, TokenType::kStar);  // * binds tighter
}

TEST(ParserTest, ParensOverridePrecedence) {
  Script s = MustParse("let x = (1 + 2) * 3");
  const Expr& root = *s.top_level[0]->expr;
  EXPECT_EQ(root.op, TokenType::kStar);
  EXPECT_EQ(root.args[0]->op, TokenType::kPlus);
}

TEST(ParserTest, ComparisonAndLogicalChain) {
  Script s = MustParse("let ok = a < b and b <= c or not d");
  const Expr& root = *s.top_level[0]->expr;
  EXPECT_EQ(root.op, TokenType::kOr);  // or is loosest
}

TEST(ParserTest, FunctionDeclaration) {
  Script s = MustParse("fn add(a, b) { return a + b }");
  ASSERT_EQ(s.functions.count("add"), 1u);
  const Stmt* fn = s.functions.at("add");
  EXPECT_EQ(fn->params, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(fn->body.size(), 1u);
  EXPECT_EQ(fn->body[0]->kind, StmtKind::kReturn);
}

TEST(ParserTest, EventHandlers) {
  Script s = MustParse(
      "on damage(attacker, target, amount) { print(amount) }\n"
      "on damage(a, t, x) { print(x) }\n"
      "on spawn(e) { print(e) }");
  EXPECT_EQ(s.handlers.size(), 3u);
  EXPECT_EQ(s.handlers[0]->name, "damage");
  EXPECT_EQ(s.handlers[2]->name, "spawn");
}

TEST(ParserTest, IfElseChains) {
  Script s = MustParse(
      "if a > 1 { print(1) } else if a > 0 { print(2) } else { print(3) }");
  const Stmt& root = *s.top_level[0];
  ASSERT_EQ(root.kind, StmtKind::kIf);
  ASSERT_EQ(root.else_body.size(), 1u);
  EXPECT_EQ(root.else_body[0]->kind, StmtKind::kIf);  // else-if nests
  EXPECT_EQ(root.else_body[0]->else_body.size(), 1u);
}

TEST(ParserTest, LoopsAndControlFlow) {
  Script s = MustParse(
      "while x < 10 { x = x + 1 if x == 5 { break } }\n"
      "foreach e in entities_with(\"Health\") { continue }");
  EXPECT_EQ(s.top_level[0]->kind, StmtKind::kWhile);
  EXPECT_EQ(s.top_level[1]->kind, StmtKind::kForeach);
  EXPECT_EQ(s.top_level[1]->name, "e");
}

TEST(ParserTest, ListLiterals) {
  Script s = MustParse("let l = [1, 2 + 3, \"x\", []]");
  const Expr& root = *s.top_level[0]->expr;
  ASSERT_EQ(root.kind, ExprKind::kList);
  EXPECT_EQ(root.args.size(), 4u);
  EXPECT_EQ(root.args[3]->kind, ExprKind::kList);
}

TEST(ParserTest, ReturnWithoutValue) {
  Script s = MustParse("fn f() { return }");
  const Stmt* fn = s.functions.at("f");
  EXPECT_EQ(fn->body[0]->expr, nullptr);
}

TEST(ParserTest, DuplicateFunctionRejected) {
  auto r = Parse("fn f() { } fn f() { }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate"), std::string::npos);
}

TEST(ParserTest, SyntaxErrorsCarryLines) {
  auto r = Parse("let x = 1\nlet = 2");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(ParserTest, UnterminatedBlockFails) {
  EXPECT_FALSE(Parse("fn f() { let x = 1").ok());
  EXPECT_FALSE(Parse("if x { ").ok());
}

TEST(ParserTest, MissingParenFails) {
  EXPECT_FALSE(Parse("let x = (1 + 2").ok());
  EXPECT_FALSE(Parse("print(1, 2").ok());
}

// Hostile nesting is a source-located ParseError, not a stack overflow
// (both inputs below used to kill the process with SIGSEGV).
TEST(ParserTest, DeepParenthesesRejectedWithLocation) {
  const std::string src =
      "let x = " + std::string(4000, '(') + "1" + std::string(4000, ')');
  auto r = Parse(src);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_NE(r.status().message().find("line 1, col "), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("nesting deeper than"),
            std::string::npos);
}

TEST(ParserTest, LongUnaryChainRejectedWithLocation) {
  const std::string src = "let x = " + std::string(100000, '-') + "1";
  auto r = Parse(src);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_NE(r.status().message().find("nesting deeper than"),
            std::string::npos)
      << r.status().ToString();
}

TEST(ParserTest, DeepBlocksAndElseIfChainsRejected) {
  std::string blocks;
  for (int i = 0; i < 5000; ++i) blocks += "if true { ";
  blocks += std::string(5000, '}');
  EXPECT_TRUE(Parse(blocks).status().IsParseError());

  std::string chain = "if false { }";
  for (int i = 0; i < 5000; ++i) chain += " else if false { }";
  EXPECT_TRUE(Parse(chain).status().IsParseError());
}

TEST(ParserTest, ModerateNestingStillParses) {
  const std::string src =
      "let x = " + std::string(200, '(') + "1" + std::string(200, ')');
  Script s = MustParse(src);
  EXPECT_EQ(s.top_level[0]->expr->kind, ExprKind::kLiteral);
  MustParse("let y = " + std::string(200, '-') + "1");
}

// Locals get frame slots at parse time; globals (a top-level `let`
// outside any block, or an undeclared name) keep kNoSlot.
TEST(ParserTest, LocalsResolveToFrameSlots) {
  Script s = MustParse(
      "let g = 1\n"
      "fn f(a, b) {\n"
      "  let c = a + g\n"
      "  if c { let d = b\n let c = d }\n"
      "  foreach v in [c] { c = v }\n"
      "  return c\n"
      "}\n");
  EXPECT_EQ(s.top_level[0]->slot, kNoSlot);
  const Stmt* f = s.functions.at("f");
  const Stmt& let_c = *f->body[0];
  EXPECT_EQ(let_c.slot, 2u);                         // after a, b
  EXPECT_EQ(let_c.expr->args[0]->slot, 0u);          // a
  EXPECT_EQ(let_c.expr->args[1]->slot, kNoSlot);     // g is a global
  const Stmt& if_stmt = *f->body[1];
  EXPECT_EQ(if_stmt.body[0]->slot, 3u);              // d
  EXPECT_EQ(if_stmt.body[1]->slot, 4u);              // inner c shadows
  const Stmt& loop = *f->body[2];
  EXPECT_EQ(loop.slot, 5u);                          // v
  EXPECT_EQ(loop.body[0]->slot, 2u);                 // assigns outer c
  EXPECT_EQ(f->body[3]->expr->slot, 2u);
  EXPECT_EQ(f->frame_size, 6u);
}

TEST(ParserTest, CallSitesAreNumberedPerScript) {
  Script s = MustParse("fn f(x) { return g(h(x), 1) }\nlet y = f(2)");
  EXPECT_EQ(s.call_sites, 3u);
  const Expr& g = *s.functions.at("f")->body[0]->expr;
  EXPECT_EQ(g.site, 0u);
  EXPECT_EQ(g.args[0]->site, 1u);
  EXPECT_EQ(s.top_level[0]->expr->site, 2u);
}

}  // namespace
}  // namespace gamedb::script
