#include "planner/expansion.h"

#include <map>

namespace vdg {

std::string StripNamespace(std::string_view transformation) {
  size_t pos = transformation.rfind("::");
  if (pos == std::string_view::npos) return std::string(transformation);
  return std::string(transformation.substr(pos + 2));
}

namespace {

// The value a compound formal is bound to during expansion.
struct BoundValue {
  bool is_dataset = false;
  std::string text;  // string value, or logical dataset name
};

using Environment = std::map<std::string, BoundValue>;

// Builds the formal->value environment for one compound invocation.
Result<Environment> BuildEnvironment(const Transformation& compound,
                                     const Derivation& derivation) {
  Environment env;
  for (const FormalArg& formal : compound.args()) {
    const ActualArg* actual = derivation.FindArg(formal.name);
    BoundValue value;
    if (actual != nullptr) {
      if (actual->string_value) {
        value.text = *actual->string_value;
      } else {
        value.is_dataset = true;
        value.text = *actual->dataset;
      }
    } else if (formal.is_string() && formal.default_string) {
      value.text = *formal.default_string;
    } else if (!formal.is_string()) {
      // Unbound dataset formal: an inout temporary. Synthesize a
      // per-derivation scratch name so parallel expansions of the same
      // compound never share state.
      value.is_dataset = true;
      value.text = derivation.name() + "." + formal.name;
    } else {
      return Status::TypeError("compound expansion: formal " + formal.name +
                               " of " + compound.name() +
                               " is unbound and has no default");
    }
    env.emplace(formal.name, std::move(value));
  }
  return env;
}

Status ExpandInto(CatalogClient& client, const Derivation& derivation,
                  int depth,
                  std::vector<Derivation>* out) {
  if (depth > 64) {
    return Status::FailedPrecondition(
        "compound nesting exceeds depth limit (cycle in compound "
        "definitions?) at " +
        derivation.name());
  }
  std::string tr_name = StripNamespace(derivation.transformation());
  VDG_ASSIGN_OR_RETURN(Transformation tr,
                       client.GetTransformation(tr_name));
  if (!tr.is_compound()) {
    out->push_back(derivation);
    return Status::OK();
  }

  VDG_ASSIGN_OR_RETURN(Environment env, BuildEnvironment(tr, derivation));

  int call_index = 0;
  for (const CompoundCall& call : tr.calls()) {
    std::string callee_name = StripNamespace(call.callee);
    VDG_ASSIGN_OR_RETURN(Transformation callee,
                         client.GetTransformation(callee_name));

    Derivation sub(derivation.name() + ".c" + std::to_string(call_index++),
                   callee_name);
    // Inherit environment-variable overrides from the parent.
    for (const auto& [k, v] : derivation.env_overrides()) {
      sub.SetEnvOverride(k, v);
    }

    for (const auto& [callee_formal, piece] : call.bindings) {
      const FormalArg* formal = callee.FindArg(callee_formal);
      if (formal == nullptr) {
        return Status::TypeError("compound " + tr.name() + " binds unknown "
                                 "formal " + callee_formal + " of " +
                                 callee.name());
      }
      if (!piece.is_ref()) {
        // Literal argument value.
        if (formal->is_string()) {
          VDG_RETURN_IF_ERROR(
              sub.AddArg(ActualArg::String(callee_formal, piece.text)));
        } else {
          // A literal bound to a dataset formal names a dataset.
          VDG_RETURN_IF_ERROR(sub.AddArg(ActualArg::DatasetRef(
              callee_formal, piece.text, formal->direction)));
        }
        continue;
      }
      auto bound = env.find(piece.text);
      if (bound == env.end()) {
        return Status::TypeError("compound " + tr.name() +
                                 " call references unknown formal " +
                                 piece.text);
      }
      if (formal->is_string()) {
        if (bound->second.is_dataset) {
          return Status::TypeError("compound " + tr.name() +
                                   " passes dataset " + bound->second.text +
                                   " to string formal " + callee_formal);
        }
        VDG_RETURN_IF_ERROR(
            sub.AddArg(ActualArg::String(callee_formal, bound->second.text)));
      } else {
        if (!bound->second.is_dataset) {
          return Status::TypeError("compound " + tr.name() +
                                   " passes string to dataset formal " +
                                   callee_formal + " of " + callee.name());
        }
        // The callee formal's declared direction governs; for inout
        // formals the call site's ${input:x}/${output:x} qualifier
        // names the leg this call uses.
        ArgDirection dir = formal->direction;
        if (dir == ArgDirection::kInOut && piece.ref_direction) {
          dir = *piece.ref_direction;
        }
        VDG_RETURN_IF_ERROR(sub.AddArg(
            ActualArg::DatasetRef(callee_formal, bound->second.text, dir)));
      }
    }

    if (callee.is_compound()) {
      VDG_RETURN_IF_ERROR(ExpandInto(client, sub, depth + 1, out));
    } else {
      out->push_back(std::move(sub));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<Derivation>> ExpandDerivation(
    CatalogClient& client, const Derivation& derivation) {
  std::vector<Derivation> out;
  VDG_RETURN_IF_ERROR(ExpandInto(client, derivation, 0, &out));
  return out;
}

}  // namespace vdg
