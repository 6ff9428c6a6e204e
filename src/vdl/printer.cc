#include "vdl/printer.h"

#include "common/strings.h"
#include "common/uri.h"

namespace vdg {

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  out += "\"";
  return out;
}

std::string PrintExpr(const TemplateExpr& expr) {
  std::string out;
  for (const TemplatePiece& piece : expr) {
    if (piece.is_ref()) {
      out += "${";
      if (piece.ref_direction) {
        out += ArgDirectionToString(*piece.ref_direction);
        out += ":";
      }
      out += piece.text;
      out += "}";
    } else {
      out += Quote(piece.text);
    }
  }
  return out;
}

std::string PrintFormal(const FormalArg& arg) {
  std::string out = ArgDirectionToString(arg.direction);
  out += " ";
  if (!arg.is_string() && !arg.types.empty()) {
    for (size_t i = 0; i < arg.types.size(); ++i) {
      if (i > 0) out += "|";
      out += arg.types[i].ToString();
    }
    out += " ";
  }
  out += arg.name;
  if (arg.default_string) {
    out += "=";
    out += Quote(*arg.default_string);
  } else if (arg.default_dataset) {
    out += "=@{";
    out += ArgDirectionToString(arg.direction);
    out += ":";
    out += Quote(*arg.default_dataset);
    out += ":\"\"}";
  }
  return out;
}

std::string PrintCalleeRef(const std::string& callee) {
  // vdp:// references must be quoted; local / ns::local names are bare.
  if (IsVdpUri(callee)) return Quote(callee);
  return callee;
}

}  // namespace

std::string PrintTransformation(const Transformation& tr) {
  std::string out = "TR " + tr.name() + "( ";
  for (size_t i = 0; i < tr.args().size(); ++i) {
    if (i > 0) out += ", ";
    out += PrintFormal(tr.args()[i]);
  }
  out += " ) {\n";
  if (tr.is_compound()) {
    for (const CompoundCall& call : tr.calls()) {
      out += "  " + PrintCalleeRef(call.callee) + "( ";
      for (size_t i = 0; i < call.bindings.size(); ++i) {
        if (i > 0) out += ", ";
        const auto& [formal, piece] = call.bindings[i];
        out += formal + "=";
        if (piece.is_ref()) {
          out += "${";
          if (piece.ref_direction) {
            out += ArgDirectionToString(*piece.ref_direction);
            out += ":";
          }
          out += piece.text;
          out += "}";
        } else {
          out += Quote(piece.text);
        }
      }
      out += " );\n";
    }
  } else {
    for (const ArgumentTemplate& t : tr.argument_templates()) {
      out += "  argument";
      if (!t.name.empty()) out += " " + t.name;
      out += " = " + PrintExpr(t.expr) + ";\n";
    }
    if (!tr.executable().empty()) {
      out += "  exec = " + Quote(tr.executable()) + ";\n";
    }
    for (const auto& [name, expr] : tr.env()) {
      out += "  env." + name + " = " + PrintExpr(expr) + ";\n";
    }
    for (const auto& [key, expr] : tr.profile()) {
      out += "  profile " + key + " = " + PrintExpr(expr) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

std::string PrintDerivation(const Derivation& dv) {
  std::string out = "DV " + dv.name() + "->";
  if (IsVdpUri(dv.transformation())) {
    out += Quote(dv.transformation());
  } else {
    out += dv.QualifiedTransformation();
  }
  out += "( ";
  for (size_t i = 0; i < dv.args().size(); ++i) {
    if (i > 0) out += ", ";
    const ActualArg& arg = dv.args()[i];
    out += arg.formal + "=";
    if (arg.string_value) {
      out += Quote(*arg.string_value);
    } else {
      out += "@{";
      out += ArgDirectionToString(*arg.direction);
      out += ":";
      out += Quote(*arg.dataset);
      out += "}";
    }
  }
  out += " );\n";
  return out;
}

std::string PrintDatasetDecl(const Dataset& ds) {
  std::string out = "DS " + ds.name + " : " + ds.type.ToString();
  if (ds.size_bytes > 0) {
    out += " size=" + Quote(std::to_string(ds.size_bytes));
  }
  if (!ds.descriptor.schema.empty() && ds.descriptor.schema != "file") {
    out += " schema=" + Quote(ds.descriptor.schema);
  }
  if (!ds.producer.empty()) {
    out += " producer=" + Quote(ds.producer);
  }
  for (const auto& [key, value] : ds.descriptor.fields) {
    out += " " + key + "=" + Quote(value.ToString());
  }
  out += ";\n";
  return out;
}

std::string PrintProgram(const VdlProgram& program) {
  std::string out;
  for (const Dataset& ds : program.datasets) out += PrintDatasetDecl(ds);
  for (const Transformation& tr : program.transformations) {
    out += PrintTransformation(tr);
  }
  for (const Derivation& dv : program.derivations) {
    out += PrintDerivation(dv);
  }
  return out;
}

}  // namespace vdg
