#ifndef VDG_SCHEMA_TRANSFORMATION_H_
#define VDG_SCHEMA_TRANSFORMATION_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "schema/attribute.h"
#include "types/type_system.h"

namespace vdg {

/// Directionality of a formal transformation argument. `kNone` is the
/// VDL keyword for by-value string parameters; the other three pass
/// datasets by reference.
enum class ArgDirection { kIn = 0, kOut = 1, kInOut = 2, kNone = 3 };

/// VDL keyword ("input"/"output"/"inout"/"none").
const char* ArgDirectionToString(ArgDirection dir);
Result<ArgDirection> ArgDirectionFromString(std::string_view word);

/// True when the direction reads its dataset (kIn, kInOut).
bool DirectionReads(ArgDirection dir);
/// True when the direction writes its dataset (kOut, kInOut).
bool DirectionWrites(ArgDirection dir);

/// A formal argument in a transformation's type signature.
struct FormalArg {
  std::string name;
  ArgDirection direction = ArgDirection::kIn;
  /// Union of acceptable dataset types; empty = untyped ("Dataset").
  /// Ignored for kNone (string) arguments.
  std::vector<DatasetType> types;
  /// Default for kNone arguments, e.g. `none pa="500"`.
  std::optional<std::string> default_string;
  /// Default logical-dataset binding for inout temporaries in compound
  /// transformations, e.g. `inout a4=@{inout:"somewhere":""}`.
  std::optional<std::string> default_dataset;

  bool is_string() const { return direction == ArgDirection::kNone; }

  /// Signature fragment, e.g. `input SDSS/Fileset/* a1`.
  std::string ToString() const;
};

/// One piece of an argument template: either literal command-line text
/// or a `${direction:arg}` reference to a formal argument.
struct TemplatePiece {
  enum class Kind { kLiteral, kArgRef };
  Kind kind = Kind::kLiteral;
  std::string text;  // literal text, or the referenced formal's name
  /// Direction qualifier as written in the reference; `${a1}` (no
  /// qualifier) records the formal's own direction at bind time.
  std::optional<ArgDirection> ref_direction;

  static TemplatePiece Literal(std::string text) {
    return TemplatePiece{Kind::kLiteral, std::move(text), std::nullopt};
  }
  static TemplatePiece Ref(std::string arg,
                           std::optional<ArgDirection> dir = std::nullopt) {
    return TemplatePiece{Kind::kArgRef, std::move(arg), dir};
  }

  bool is_ref() const { return kind == Kind::kArgRef; }

  std::string ToString() const;

  bool operator==(const TemplatePiece& other) const {
    return kind == other.kind && text == other.text &&
           ref_direction == other.ref_direction;
  }
};

/// A concatenation of template pieces; the value of an `argument`,
/// `env.` or `profile` body statement.
using TemplateExpr = std::vector<TemplatePiece>;

/// A named command-line argument template inside a simple
/// transformation body, e.g. `argument farg = "-f "${input:a1};`.
/// The reserved names "stdin"/"stdout"/"stderr" describe stream
/// redirection, per the POSIX execution model of Chimera-0/1.
struct ArgumentTemplate {
  std::string name;  // may be empty (anonymous positional argument)
  TemplateExpr expr;
};

/// One nested call inside a compound transformation body:
/// `trans1( a2=${output:a4}, a1=${a1} );`. Bindings map the callee's
/// formal names to expressions over the compound's own formals.
struct CompoundCall {
  std::string callee;  // local name, "ns::name", or vdp:// URI
  std::vector<std::pair<std::string, TemplatePiece>> bindings;

  /// Returns the binding for `formal`, or nullptr.
  const TemplatePiece* FindBinding(std::string_view formal) const;
};

/// A typed computational procedure (Section 3.2). Simple
/// transformations carry an executable plus argument/environment
/// templates; compound transformations compose other transformations
/// into a directed acyclic execution graph.
class Transformation {
 public:
  enum class Kind { kSimple, kCompound };

  Transformation() = default;
  Transformation(std::string name, Kind kind)
      : name_(std::move(name)), kind_(kind) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  Kind kind() const { return kind_; }
  void set_kind(Kind kind) { kind_ = kind; }
  bool is_compound() const { return kind_ == Kind::kCompound; }

  const std::string& version() const { return version_; }
  void set_version(std::string v) { version_ = std::move(v); }

  const std::vector<FormalArg>& args() const { return args_; }
  std::vector<FormalArg>& mutable_args() { return args_; }
  Status AddArg(FormalArg arg);
  const FormalArg* FindArg(std::string_view name) const;

  /// Formal names read / written by this transformation's signature.
  std::vector<std::string> InputArgNames() const;
  std::vector<std::string> OutputArgNames() const;

  // --- Simple-transformation body ---
  const std::string& executable() const { return executable_; }
  void set_executable(std::string exe) { executable_ = std::move(exe); }

  const std::vector<ArgumentTemplate>& argument_templates() const {
    return argument_templates_;
  }
  void AddArgumentTemplate(ArgumentTemplate t) {
    argument_templates_.push_back(std::move(t));
  }

  const std::map<std::string, TemplateExpr>& env() const { return env_; }
  void SetEnv(std::string name, TemplateExpr value) {
    env_.insert_or_assign(std::move(name), std::move(value));
  }

  /// `profile ns.key = value;` hints (e.g. hints.pfnHint).
  const std::map<std::string, TemplateExpr>& profile() const {
    return profile_;
  }
  void SetProfile(std::string key, TemplateExpr value) {
    profile_.insert_or_assign(std::move(key), std::move(value));
  }

  // --- Compound-transformation body ---
  const std::vector<CompoundCall>& calls() const { return calls_; }
  void AddCall(CompoundCall call) { calls_.push_back(std::move(call)); }

  AttributeSet& annotations() { return annotations_; }
  const AttributeSet& annotations() const { return annotations_; }

  /// The paper's discoverable type signature, e.g.
  /// `t1( output type2 a2, input type1 a1, none env, none pa )`.
  std::string TypeSignature() const;

  /// Structural checks that need no registry: valid names, unique
  /// formals, simple TRs have an executable, template refs resolve to
  /// formals, compound calls bind only known local formals.
  Status Validate() const;

 private:
  std::string name_;
  Kind kind_ = Kind::kSimple;
  std::string version_;
  std::vector<FormalArg> args_;

  std::string executable_;
  std::vector<ArgumentTemplate> argument_templates_;
  std::map<std::string, TemplateExpr> env_;
  std::map<std::string, TemplateExpr> profile_;

  std::vector<CompoundCall> calls_;

  AttributeSet annotations_;
};

}  // namespace vdg

#endif  // VDG_SCHEMA_TRANSFORMATION_H_
