#ifndef VDG_VDL_XML_PARSE_H_
#define VDG_VDL_XML_PARSE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "vdl/parser.h"

namespace vdg {

/// Minimal XML document node, sufficient for the VDL machine-to-
/// machine wire format emitted by vdl/xml.h (elements, attributes,
/// text content; no namespaces, CDATA, or processing beyond skipping
/// the <?xml?> prolog and comments).
struct XmlNode {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::vector<std::unique_ptr<XmlNode>> children;
  std::string text;  // concatenated character data directly inside

  const std::string* FindAttribute(std::string_view key) const;
  /// First child element with the given tag; nullptr when absent.
  const XmlNode* FirstChild(std::string_view tag) const;
  /// All child elements with the given tag.
  std::vector<const XmlNode*> Children(std::string_view tag) const;
};

/// Parses one XML document into a node tree. Elements nested more
/// than 256 deep are a ParseError.
Result<std::unique_ptr<XmlNode>> ParseXml(std::string_view input);

/// Parses the <vdl> wire format back into schema objects — the inverse
/// of ProgramToXml. Round-trip property: for any program P,
/// ParseVdlXml(ProgramToXml(P)) is equivalent to P (verified in
/// tests/test_vdl_xml.cc).
Result<VdlProgram> ParseVdlXml(std::string_view xml);

/// Individual object decoders (used by the federation wire path).
Result<Transformation> TransformationFromXml(const XmlNode& node);
Result<Derivation> DerivationFromXml(const XmlNode& node);
Result<Dataset> DatasetFromXml(const XmlNode& node);

}  // namespace vdg

#endif  // VDG_VDL_XML_PARSE_H_
