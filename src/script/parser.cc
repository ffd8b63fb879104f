#include "script/parser.h"

#include "common/string_util.h"
#include "script/lexer.h"

namespace gamedb::script {

namespace {

/// Deepest syntactic nesting accepted: blocks, `else if` chains,
/// parenthesized / argument / list sub-expressions and prefix operators
/// each add a level. Bounds the parser's recursion and, because the AST
/// is no deeper, the interpreter's and the verifier's.
constexpr int kMaxNesting = 256;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Script> Run(std::string name) {
    Script script;
    script.name = std::move(name);
    while (!Check(TokenType::kEof)) {
      if (Check(TokenType::kFn) || Check(TokenType::kOn)) {
        GAMEDB_ASSIGN_OR_RETURN(auto decl, ParseDecl());
        const Stmt* raw = decl.get();
        if (raw->kind == StmtKind::kFn) {
          if (script.functions.count(raw->name)) {
            return Err(raw->line, "duplicate function '" + raw->name + "'");
          }
          script.functions.emplace(raw->name, raw);
        } else {
          script.handlers.push_back(raw);
        }
        script.decls.push_back(std::move(decl));
      } else {
        GAMEDB_ASSIGN_OR_RETURN(auto stmt, ParseStmt());
        script.top_level.push_back(std::move(stmt));
      }
    }
    script.call_sites = call_sites_;
    script.frame_size = top_frame_size_;
    return script;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Prev() const { return tokens_[pos_ - 1]; }
  bool Check(TokenType t) const { return Peek().type == t; }
  bool Match(TokenType t) {
    if (!Check(t)) return false;
    ++pos_;
    return true;
  }
  Status Err(int line, const std::string& msg) const {
    return Status::ParseError(StringFormat("line %d: %s", line, msg.c_str()));
  }
  Status Expect(TokenType t) {
    if (Match(t)) return Status::OK();
    return Err(Peek().line, std::string("expected ") + TokenTypeName(t) +
                                ", got " + TokenTypeName(Peek().type));
  }

  // ---- nesting bound -----------------------------------------------------

  /// One level of recursive descent; leaving the production pops it.
  class Nest {
   public:
    explicit Nest(int* depth) : depth_(depth) { ++*depth_; }
    ~Nest() { --*depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    int* depth_;
  };
  Status CheckNesting() const {
    if (depth_ <= kMaxNesting) return Status::OK();
    return Status::ParseError(
        StringFormat("line %d, col %d: nesting deeper than %d levels",
                     Peek().line, Peek().column, kMaxNesting));
  }

  // ---- frame slots -------------------------------------------------------
  // Mirrors the interpreter's scoping: a function frame holds its params
  // and body locals in one scope, every if/while/foreach body opens a
  // nested one, and a name found in no scope of the current frame is a
  // global. At the top level the outermost scope *is* the globals, so
  // `scopes_` is empty there and a `let` outside any block declares a
  // global.

  struct Binding {
    std::string name;
    uint32_t slot;
  };
  using Scope = std::vector<Binding>;

  uint32_t Lookup(const std::string& name) const {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      for (auto b = scope->rbegin(); b != scope->rend(); ++b) {
        if (b->name == name) return b->slot;
      }
    }
    return kNoSlot;
  }
  /// Binds `name` in the innermost scope; re-declaring a name there reuses
  /// its slot (the interpreter overwrites it, as `let` always has).
  uint32_t Declare(const std::string& name) {
    if (scopes_.empty()) return kNoSlot;  // top-level global
    for (const Binding& b : scopes_.back()) {
      if (b.name == name) return b.slot;
    }
    uint32_t slot = (*frame_size_)++;
    scopes_.back().push_back(Binding{name, slot});
    return slot;
  }

  Result<std::unique_ptr<Stmt>> ParseDecl() {
    bool is_fn = Match(TokenType::kFn);
    if (!is_fn) GAMEDB_RETURN_NOT_OK(Expect(TokenType::kOn));
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = is_fn ? StmtKind::kFn : StmtKind::kOn;
    stmt->line = Prev().line;
    stmt->col = Prev().column;
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIdent));
    stmt->name = Prev().text;
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kLParen));
    if (!Check(TokenType::kRParen)) {
      do {
        GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIdent));
        stmt->params.push_back(Prev().text);
      } while (Match(TokenType::kComma));
    }
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRParen));
    // A fresh frame: parameters take slots 0..n-1 (a repeated name binds
    // its last slot, as the last argument used to overwrite the first),
    // body locals follow in the same scope.
    uint32_t* const outer_frame = frame_size_;
    frame_size_ = &stmt->frame_size;
    scopes_.emplace_back();
    for (const std::string& p : stmt->params) {
      scopes_.back().push_back(Binding{p, (*frame_size_)++});
    }
    Result<std::vector<std::unique_ptr<Stmt>>> body =
        ParseBlock(/*new_scope=*/false);
    scopes_.pop_back();
    frame_size_ = outer_frame;
    if (!body.ok()) return body.status();
    stmt->body = std::move(*body);
    return stmt;
  }

  /// `{ stmt* }`. With `new_scope` false the statements bind into the
  /// caller's innermost scope (function and foreach bodies).
  Result<std::vector<std::unique_ptr<Stmt>>> ParseBlock(bool new_scope) {
    Nest nest(&depth_);
    GAMEDB_RETURN_NOT_OK(CheckNesting());
    if (new_scope) scopes_.emplace_back();
    Result<std::vector<std::unique_ptr<Stmt>>> body = ParseBlockBody();
    if (new_scope) scopes_.pop_back();
    return body;
  }

  Result<std::vector<std::unique_ptr<Stmt>>> ParseBlockBody() {
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kLBrace));
    std::vector<std::unique_ptr<Stmt>> body;
    while (!Check(TokenType::kRBrace)) {
      if (Check(TokenType::kEof)) {
        return Err(Peek().line, "unterminated block");
      }
      GAMEDB_ASSIGN_OR_RETURN(auto stmt, ParseStmt());
      body.push_back(std::move(stmt));
    }
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRBrace));
    return body;
  }

  Result<std::unique_ptr<Stmt>> ParseStmt() {
    auto stmt = std::make_unique<Stmt>();
    stmt->line = Peek().line;
    stmt->col = Peek().column;

    if (Match(TokenType::kLet)) {
      stmt->kind = StmtKind::kLet;
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIdent));
      stmt->name = Prev().text;
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kAssign));
      // The initializer sees the bindings from before this `let`.
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      stmt->slot = Declare(stmt->name);
      return stmt;
    }
    if (Match(TokenType::kIf)) {
      stmt->kind = StmtKind::kIf;
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      GAMEDB_ASSIGN_OR_RETURN(stmt->body, ParseBlock(/*new_scope=*/true));
      if (Match(TokenType::kElse)) {
        if (Check(TokenType::kIf)) {
          // `else if` runs in a scope of its own, like an else block.
          Nest nest(&depth_);
          GAMEDB_RETURN_NOT_OK(CheckNesting());
          scopes_.emplace_back();
          Result<std::unique_ptr<Stmt>> elif = ParseStmt();
          scopes_.pop_back();
          if (!elif.ok()) return elif.status();
          stmt->else_body.push_back(std::move(*elif));
        } else {
          GAMEDB_ASSIGN_OR_RETURN(stmt->else_body,
                                  ParseBlock(/*new_scope=*/true));
        }
      }
      return stmt;
    }
    if (Match(TokenType::kWhile)) {
      stmt->kind = StmtKind::kWhile;
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      GAMEDB_ASSIGN_OR_RETURN(stmt->body, ParseBlock(/*new_scope=*/true));
      return stmt;
    }
    if (Match(TokenType::kForeach)) {
      stmt->kind = StmtKind::kForeach;
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIdent));
      stmt->name = Prev().text;
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIn));
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      // The loop variable and the body's locals share one scope per item.
      scopes_.emplace_back();
      stmt->slot = Declare(stmt->name);
      Result<std::vector<std::unique_ptr<Stmt>>> body =
          ParseBlock(/*new_scope=*/false);
      scopes_.pop_back();
      if (!body.ok()) return body.status();
      stmt->body = std::move(*body);
      return stmt;
    }
    if (Match(TokenType::kReturn)) {
      stmt->kind = StmtKind::kReturn;
      // Optional value: anything that can start an expression.
      if (!Check(TokenType::kRBrace) && !Check(TokenType::kEof)) {
        GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      }
      return stmt;
    }
    if (Match(TokenType::kBreak)) {
      stmt->kind = StmtKind::kBreak;
      return stmt;
    }
    if (Match(TokenType::kContinue)) {
      stmt->kind = StmtKind::kContinue;
      return stmt;
    }
    // Assignment: IDENT '=' expr (lookahead two tokens).
    if (Check(TokenType::kIdent) &&
        tokens_[pos_ + 1].type == TokenType::kAssign) {
      stmt->kind = StmtKind::kAssign;
      stmt->name = Peek().text;
      stmt->slot = Lookup(stmt->name);
      pos_ += 2;
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      return stmt;
    }
    stmt->kind = StmtKind::kExpr;
    GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
    return stmt;
  }

  Result<std::unique_ptr<Expr>> ParseExpr() {
    Nest nest(&depth_);
    GAMEDB_RETURN_NOT_OK(CheckNesting());
    return ParseOr();
  }

  Result<std::unique_ptr<Expr>> ParseBinaryChain(
      Result<std::unique_ptr<Expr>> (Parser::*next)(),
      std::initializer_list<TokenType> ops) {
    GAMEDB_ASSIGN_OR_RETURN(auto lhs, (this->*next)());
    while (true) {
      bool matched = false;
      for (TokenType op : ops) {
        if (Match(op)) {
          auto node = std::make_unique<Expr>();
          node->kind = ExprKind::kBinary;
          node->line = Prev().line;
          node->col = Prev().column;
          node->op = op;
          GAMEDB_ASSIGN_OR_RETURN(auto rhs, (this->*next)());
          node->args.push_back(std::move(lhs));
          node->args.push_back(std::move(rhs));
          lhs = std::move(node);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  Result<std::unique_ptr<Expr>> ParseOr() {
    return ParseBinaryChain(&Parser::ParseAnd, {TokenType::kOr});
  }
  Result<std::unique_ptr<Expr>> ParseAnd() {
    return ParseBinaryChain(&Parser::ParseEq, {TokenType::kAnd});
  }
  Result<std::unique_ptr<Expr>> ParseEq() {
    return ParseBinaryChain(&Parser::ParseCmp,
                            {TokenType::kEq, TokenType::kNe});
  }
  Result<std::unique_ptr<Expr>> ParseCmp() {
    return ParseBinaryChain(&Parser::ParseAdd,
                            {TokenType::kLt, TokenType::kLe, TokenType::kGt,
                             TokenType::kGe});
  }
  Result<std::unique_ptr<Expr>> ParseAdd() {
    return ParseBinaryChain(&Parser::ParseMul,
                            {TokenType::kPlus, TokenType::kMinus});
  }
  Result<std::unique_ptr<Expr>> ParseMul() {
    return ParseBinaryChain(
        &Parser::ParseUnary,
        {TokenType::kStar, TokenType::kSlash, TokenType::kPercent});
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (Match(TokenType::kMinus) || Match(TokenType::kNot)) {
      Nest nest(&depth_);
      GAMEDB_RETURN_NOT_OK(CheckNesting());
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kUnary;
      node->line = Prev().line;
      node->col = Prev().column;
      node->op = Prev().type;
      GAMEDB_ASSIGN_OR_RETURN(auto operand, ParseUnary());
      node->args.push_back(std::move(operand));
      return node;
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    auto node = std::make_unique<Expr>();
    node->line = Peek().line;
    node->col = Peek().column;
    if (Match(TokenType::kNumber)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value(Prev().number);
      return node;
    }
    if (Match(TokenType::kString)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value(Prev().text);
      return node;
    }
    if (Match(TokenType::kTrue)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value(true);
      return node;
    }
    if (Match(TokenType::kFalse)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value(false);
      return node;
    }
    if (Match(TokenType::kNil)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value::Nil();
      return node;
    }
    if (Match(TokenType::kLBracket)) {
      node->kind = ExprKind::kList;
      if (!Check(TokenType::kRBracket)) {
        do {
          GAMEDB_ASSIGN_OR_RETURN(auto item, ParseExpr());
          node->args.push_back(std::move(item));
        } while (Match(TokenType::kComma));
      }
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRBracket));
      return node;
    }
    if (Match(TokenType::kLParen)) {
      GAMEDB_ASSIGN_OR_RETURN(auto inner, ParseExpr());
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRParen));
      return inner;
    }
    if (Match(TokenType::kIdent)) {
      node->name = Prev().text;
      if (Match(TokenType::kLParen)) {
        node->kind = ExprKind::kCall;
        node->site = call_sites_++;
        if (!Check(TokenType::kRParen)) {
          do {
            GAMEDB_ASSIGN_OR_RETURN(auto arg, ParseExpr());
            node->args.push_back(std::move(arg));
          } while (Match(TokenType::kComma));
        }
        GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRParen));
        return node;
      }
      node->kind = ExprKind::kVar;
      node->slot = Lookup(node->name);
      return node;
    }
    return Err(Peek().line, std::string("unexpected ") +
                                TokenTypeName(Peek().type));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
  uint32_t call_sites_ = 0;
  std::vector<Scope> scopes_;
  uint32_t top_frame_size_ = 0;
  /// Slot counter of the frame being parsed (a declaration's frame_size,
  /// or the top level's).
  uint32_t* frame_size_ = &top_frame_size_;
};

}  // namespace

Result<Script> Parse(std::string_view source, std::string name) {
  GAMEDB_ASSIGN_OR_RETURN(auto tokens, Lex(source));
  Parser parser(std::move(tokens));
  return parser.Run(std::move(name));
}

}  // namespace gamedb::script
