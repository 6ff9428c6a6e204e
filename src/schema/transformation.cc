#include "schema/transformation.h"

#include <set>

#include "common/strings.h"

namespace vdg {

const char* ArgDirectionToString(ArgDirection dir) {
  switch (dir) {
    case ArgDirection::kIn:
      return "input";
    case ArgDirection::kOut:
      return "output";
    case ArgDirection::kInOut:
      return "inout";
    case ArgDirection::kNone:
      return "none";
  }
  return "?";
}

Result<ArgDirection> ArgDirectionFromString(std::string_view word) {
  if (word == "input" || word == "in") return ArgDirection::kIn;
  if (word == "output" || word == "out") return ArgDirection::kOut;
  if (word == "inout") return ArgDirection::kInOut;
  if (word == "none") return ArgDirection::kNone;
  return Status::ParseError("unknown argument direction: " +
                            std::string(word));
}

bool DirectionReads(ArgDirection dir) {
  return dir == ArgDirection::kIn || dir == ArgDirection::kInOut;
}

bool DirectionWrites(ArgDirection dir) {
  return dir == ArgDirection::kOut || dir == ArgDirection::kInOut;
}

std::string FormalArg::ToString() const {
  std::string out = ArgDirectionToString(direction);
  if (!is_string() && !types.empty()) {
    out += " ";
    for (size_t i = 0; i < types.size(); ++i) {
      if (i > 0) out += "|";
      out += types[i].ToString();
    }
  }
  out += " ";
  out += name;
  if (default_string) {
    out += "=\"" + *default_string + "\"";
  } else if (default_dataset) {
    out += "=@{" + std::string(ArgDirectionToString(direction)) + ":\"" +
           *default_dataset + "\":\"\"}";
  }
  return out;
}

std::string TemplatePiece::ToString() const {
  if (kind == Kind::kLiteral) return "\"" + text + "\"";
  std::string out = "${";
  if (ref_direction) {
    out += ArgDirectionToString(*ref_direction);
    out += ":";
  }
  out += text;
  out += "}";
  return out;
}

const TemplatePiece* CompoundCall::FindBinding(
    std::string_view formal) const {
  for (const auto& [name, piece] : bindings) {
    if (name == formal) return &piece;
  }
  return nullptr;
}

Status Transformation::AddArg(FormalArg arg) {
  if (!IsValidIdentifier(arg.name)) {
    return Status::InvalidArgument("invalid formal argument name: " +
                                   arg.name);
  }
  if (FindArg(arg.name) != nullptr) {
    return Status::AlreadyExists("duplicate formal argument: " + arg.name);
  }
  args_.push_back(std::move(arg));
  return Status::OK();
}

const FormalArg* Transformation::FindArg(std::string_view name) const {
  for (const FormalArg& arg : args_) {
    if (arg.name == name) return &arg;
  }
  return nullptr;
}

std::vector<std::string> Transformation::InputArgNames() const {
  std::vector<std::string> out;
  for (const FormalArg& arg : args_) {
    if (!arg.is_string() && DirectionReads(arg.direction)) {
      out.push_back(arg.name);
    }
  }
  return out;
}

std::vector<std::string> Transformation::OutputArgNames() const {
  std::vector<std::string> out;
  for (const FormalArg& arg : args_) {
    if (!arg.is_string() && DirectionWrites(arg.direction)) {
      out.push_back(arg.name);
    }
  }
  return out;
}

std::string Transformation::TypeSignature() const {
  std::string out = name_;
  out += "( ";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    const FormalArg& a = args_[i];
    out += ArgDirectionToString(a.direction);
    out += " ";
    if (!a.is_string()) {
      if (a.types.empty()) {
        out += "Dataset ";
      } else {
        for (size_t t = 0; t < a.types.size(); ++t) {
          if (t > 0) out += "|";
          out += a.types[t].ToString();
        }
        out += " ";
      }
    }
    out += a.name;
  }
  out += " )";
  return out;
}

namespace {

// Checks that every ${...} reference inside `expr` names a formal of
// `tr` and that the direction qualifier (if any) matches.
Status CheckTemplateExpr(const Transformation& tr, const TemplateExpr& expr,
                         const std::string& context) {
  for (const TemplatePiece& piece : expr) {
    if (!piece.is_ref()) continue;
    const FormalArg* formal = tr.FindArg(piece.text);
    if (formal == nullptr) {
      return Status::InvalidArgument("transformation " + tr.name() + " " +
                                     context + " references unknown formal " +
                                     piece.text);
    }
    if (piece.ref_direction && *piece.ref_direction != formal->direction &&
        // inout formals may be referenced as input or output legs.
        formal->direction != ArgDirection::kInOut) {
      return Status::InvalidArgument(
          "transformation " + tr.name() + " " + context + " references " +
          piece.text + " as " + ArgDirectionToString(*piece.ref_direction) +
          " but it is declared " +
          ArgDirectionToString(formal->direction));
    }
  }
  return Status::OK();
}

}  // namespace

Status Transformation::Validate() const {
  if (!IsValidIdentifier(name_)) {
    return Status::InvalidArgument("invalid transformation name: " + name_);
  }
  std::set<std::string> seen;
  for (const FormalArg& arg : args_) {
    if (!IsValidIdentifier(arg.name)) {
      return Status::InvalidArgument("transformation " + name_ +
                                     " has invalid formal name: " + arg.name);
    }
    if (!seen.insert(arg.name).second) {
      return Status::InvalidArgument("transformation " + name_ +
                                     " has duplicate formal: " + arg.name);
    }
    if (arg.is_string() && !arg.types.empty()) {
      return Status::TypeError("string (none) argument " + arg.name +
                               " of " + name_ + " cannot carry dataset types");
    }
  }
  if (kind_ == Kind::kSimple) {
    if (!calls_.empty()) {
      return Status::InvalidArgument("simple transformation " + name_ +
                                     " must not contain nested calls");
    }
    if (executable_.empty() && profile_.find("hints.pfnHint") == profile_.end()) {
      return Status::InvalidArgument("simple transformation " + name_ +
                                     " declares no executable");
    }
    for (const ArgumentTemplate& t : argument_templates_) {
      VDG_RETURN_IF_ERROR(
          CheckTemplateExpr(*this, t.expr, "argument template"));
    }
    for (const auto& [key, expr] : env_) {
      VDG_RETURN_IF_ERROR(CheckTemplateExpr(*this, expr, "env." + key));
    }
    for (const auto& [key, expr] : profile_) {
      VDG_RETURN_IF_ERROR(CheckTemplateExpr(*this, expr, "profile " + key));
    }
  } else {
    if (calls_.empty()) {
      return Status::InvalidArgument("compound transformation " + name_ +
                                     " has an empty body");
    }
    if (!executable_.empty()) {
      return Status::InvalidArgument("compound transformation " + name_ +
                                     " must not declare an executable");
    }
    for (const CompoundCall& call : calls_) {
      std::set<std::string> bound;
      for (const auto& [formal, piece] : call.bindings) {
        if (!bound.insert(formal).second) {
          return Status::InvalidArgument(
              "compound " + name_ + " binds formal " + formal + " of " +
              call.callee + " twice");
        }
        if (piece.is_ref()) {
          if (FindArg(piece.text) == nullptr) {
            return Status::InvalidArgument(
                "compound " + name_ + " call to " + call.callee +
                " references unknown formal " + piece.text);
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace vdg
