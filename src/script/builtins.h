#pragma once

/// \file builtins.h
/// World-independent GSL standard library: printing, math, vectors, lists
/// and deterministic randomness. ECS access lives in bindings.h.

#include "script/interpreter.h"

namespace gamedb::script {

/// Registers the core builtins on `interp`:
///   print(args...)            -> nil; appends a line to interp->output()
///   abs/floor/ceil/sqrt(x), min(a,b), max(a,b), clamp(x,lo,hi)
///   vec3(x,y,z), vx(v), vy(v), vz(v), distance(a,b), length(v)
///   len(l), push(l,v) -> l, at(l,i), set_at(l,i,v), range(n) -> [0..n)
///   random()  -> [0,1) from the interpreter's seeded RNG
///   random_int(lo,hi) -> integer in [lo,hi]
///   str(v) -> string rendering
void RegisterCoreBuiltins(Interpreter* interp);

/// Argument-checking helpers shared by builtin implementations.
Status ExpectArgs(ArgSpan args, size_t n,
                  const char* signature);
Result<double> ArgNumber(ArgSpan args, size_t i,
                         const char* signature);
Result<EntityId> ArgEntity(ArgSpan args, size_t i,
                           const char* signature);
Result<std::string> ArgString(ArgSpan args, size_t i,
                              const char* signature);
Result<Vec3> ArgVec3(ArgSpan args, size_t i,
                     const char* signature);
Result<ValueList> ArgList(ArgSpan args, size_t i,
                          const char* signature);

}  // namespace gamedb::script
