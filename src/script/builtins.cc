#include "script/builtins.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace gamedb::script {

Status ExpectArgs(ArgSpan args, size_t n,
                  const char* signature) {
  if (args.size() != n) {
    return Status::InvalidArgument(
        StringFormat("expected %zu args: %s", n, signature));
  }
  return Status::OK();
}

Result<double> ArgNumber(ArgSpan args, size_t i,
                         const char* signature) {
  if (i >= args.size() || !args[i].IsNumber()) {
    return Status::InvalidArgument(
        StringFormat("arg %zu must be a number: %s", i + 1, signature));
  }
  return args[i].AsNumber();
}

Result<EntityId> ArgEntity(ArgSpan args, size_t i,
                           const char* signature) {
  if (i >= args.size() || !args[i].IsEntity()) {
    return Status::InvalidArgument(
        StringFormat("arg %zu must be an entity: %s", i + 1, signature));
  }
  return args[i].AsEntity();
}

Result<std::string> ArgString(ArgSpan args, size_t i,
                              const char* signature) {
  if (i >= args.size() || !args[i].IsString()) {
    return Status::InvalidArgument(
        StringFormat("arg %zu must be a string: %s", i + 1, signature));
  }
  return args[i].AsString();
}

Result<Vec3> ArgVec3(ArgSpan args, size_t i,
                     const char* signature) {
  if (i >= args.size() || !args[i].IsVec3()) {
    return Status::InvalidArgument(
        StringFormat("arg %zu must be a vec3: %s", i + 1, signature));
  }
  return args[i].AsVec3();
}

Result<ValueList> ArgList(ArgSpan args, size_t i,
                          const char* signature) {
  if (i >= args.size() || !args[i].IsList()) {
    return Status::InvalidArgument(
        StringFormat("arg %zu must be a list: %s", i + 1, signature));
  }
  return args[i].AsList();
}

void RegisterCoreBuiltins(Interpreter* interp) {
  interp->RegisterBuiltin(
      "print",
      [](ArgSpan args, SiteBinding&, Interpreter& in) -> Result<Value> {
        std::string line;
        for (size_t i = 0; i < args.size(); ++i) {
          if (i > 0) line += " ";
          line += args[i].ToString();
        }
        in.AppendOutput(std::move(line));
        return Value::Nil();
      });

  interp->RegisterBuiltin(
      "str", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "str(v)"));
        return Value(args[0].ToString());
      });

  auto unary_math = [interp](const char* name, double (*fn)(double)) {
    std::string sig = std::string(name) + "(x)";
    interp->RegisterBuiltin(
        name, [fn, sig](ArgSpan args, SiteBinding&,
                        Interpreter&) -> Result<Value> {
          GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, sig.c_str()));
          GAMEDB_ASSIGN_OR_RETURN(double x, ArgNumber(args, 0, sig.c_str()));
          return Value(fn(x));
        });
  };
  unary_math("abs", [](double x) { return std::abs(x); });
  unary_math("floor", [](double x) { return std::floor(x); });
  unary_math("ceil", [](double x) { return std::ceil(x); });
  unary_math("sqrt", [](double x) { return std::sqrt(x); });

  interp->RegisterBuiltin(
      "min", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, "min(a, b)"));
        GAMEDB_ASSIGN_OR_RETURN(double a, ArgNumber(args, 0, "min(a, b)"));
        GAMEDB_ASSIGN_OR_RETURN(double b, ArgNumber(args, 1, "min(a, b)"));
        return Value(std::min(a, b));
      });
  interp->RegisterBuiltin(
      "max", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, "max(a, b)"));
        GAMEDB_ASSIGN_OR_RETURN(double a, ArgNumber(args, 0, "max(a, b)"));
        GAMEDB_ASSIGN_OR_RETURN(double b, ArgNumber(args, 1, "max(a, b)"));
        return Value(std::max(a, b));
      });
  interp->RegisterBuiltin(
      "clamp", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 3, "clamp(x, lo, hi)"));
        GAMEDB_ASSIGN_OR_RETURN(double x, ArgNumber(args, 0, "clamp"));
        GAMEDB_ASSIGN_OR_RETURN(double lo, ArgNumber(args, 1, "clamp"));
        GAMEDB_ASSIGN_OR_RETURN(double hi, ArgNumber(args, 2, "clamp"));
        return Value(std::clamp(x, lo, hi));
      });

  interp->RegisterBuiltin(
      "vec3", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 3, "vec3(x, y, z)"));
        GAMEDB_ASSIGN_OR_RETURN(double x, ArgNumber(args, 0, "vec3"));
        GAMEDB_ASSIGN_OR_RETURN(double y, ArgNumber(args, 1, "vec3"));
        GAMEDB_ASSIGN_OR_RETURN(double z, ArgNumber(args, 2, "vec3"));
        return Value(Vec3(static_cast<float>(x), static_cast<float>(y),
                          static_cast<float>(z)));
      });
  auto vec_component = [interp](const char* name, int axis) {
    interp->RegisterBuiltin(
        name,
        [axis](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
          GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "vx/vy/vz(v)"));
          GAMEDB_ASSIGN_OR_RETURN(Vec3 v, ArgVec3(args, 0, "vx/vy/vz(v)"));
          return Value(static_cast<double>(axis == 0 ? v.x
                                           : axis == 1 ? v.y
                                                       : v.z));
        });
  };
  vec_component("vx", 0);
  vec_component("vy", 1);
  vec_component("vz", 2);
  interp->RegisterBuiltin(
      "distance",
      [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, "distance(a, b)"));
        GAMEDB_ASSIGN_OR_RETURN(Vec3 a, ArgVec3(args, 0, "distance(a, b)"));
        GAMEDB_ASSIGN_OR_RETURN(Vec3 b, ArgVec3(args, 1, "distance(a, b)"));
        return Value(static_cast<double>(a.DistanceTo(b)));
      });
  interp->RegisterBuiltin(
      "length", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "length(v)"));
        GAMEDB_ASSIGN_OR_RETURN(Vec3 v, ArgVec3(args, 0, "length(v)"));
        return Value(static_cast<double>(v.Length()));
      });

  interp->RegisterBuiltin(
      "len", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "len(list)"));
        GAMEDB_ASSIGN_OR_RETURN(ValueList l, ArgList(args, 0, "len(list)"));
        return Value(static_cast<double>(l->size()));
      });
  interp->RegisterBuiltin(
      "push", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, "push(list, v)"));
        GAMEDB_ASSIGN_OR_RETURN(ValueList l, ArgList(args, 0, "push(list, v)"));
        l->push_back(args[1]);
        return args[0];
      });
  interp->RegisterBuiltin(
      "at", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, "at(list, i)"));
        GAMEDB_ASSIGN_OR_RETURN(ValueList l, ArgList(args, 0, "at(list, i)"));
        GAMEDB_ASSIGN_OR_RETURN(double di, ArgNumber(args, 1, "at(list, i)"));
        auto i = static_cast<int64_t>(di);
        if (i < 0 || static_cast<size_t>(i) >= l->size()) {
          return Status::OutOfRange(
              StringFormat("index %lld out of range (len %zu)",
                           static_cast<long long>(i), l->size()));
        }
        return (*l)[static_cast<size_t>(i)];
      });
  interp->RegisterBuiltin(
      "set_at", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 3, "set_at(list, i, v)"));
        GAMEDB_ASSIGN_OR_RETURN(ValueList l, ArgList(args, 0, "set_at"));
        GAMEDB_ASSIGN_OR_RETURN(double di, ArgNumber(args, 1, "set_at"));
        auto i = static_cast<int64_t>(di);
        if (i < 0 || static_cast<size_t>(i) >= l->size()) {
          return Status::OutOfRange("set_at index out of range");
        }
        (*l)[static_cast<size_t>(i)] = args[2];
        return args[0];
      });
  interp->RegisterBuiltin(
      "range", [](ArgSpan args, SiteBinding&, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "range(n)"));
        GAMEDB_ASSIGN_OR_RETURN(double dn, ArgNumber(args, 0, "range(n)"));
        auto n = static_cast<int64_t>(dn);
        if (n < 0 || n > 10'000'000) {
          return Status::InvalidArgument("range(n): n out of bounds");
        }
        std::vector<Value> items;
        items.reserve(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
          items.emplace_back(static_cast<double>(i));
        }
        return Value::NewList(std::move(items));
      });

  interp->RegisterBuiltin(
      "random",
      [](ArgSpan args, SiteBinding&, Interpreter& in) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 0, "random()"));
        return Value(in.rng().NextDouble());
      });
  interp->RegisterBuiltin(
      "random_int",
      [](ArgSpan args, SiteBinding&, Interpreter& in) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, "random_int(lo, hi)"));
        GAMEDB_ASSIGN_OR_RETURN(double lo, ArgNumber(args, 0, "random_int"));
        GAMEDB_ASSIGN_OR_RETURN(double hi, ArgNumber(args, 1, "random_int"));
        if (lo > hi) return Status::InvalidArgument("random_int: lo > hi");
        return Value(static_cast<double>(in.rng().NextInt(
            static_cast<int64_t>(lo), static_cast<int64_t>(hi))));
      });
}

}  // namespace gamedb::script
