#include "xml/parser.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "xml/push_parser.h"
#include "xml/sax.h"

namespace xmlreval::xml {
namespace {

// SAX handler that materializes the DOM.
class DomBuilder : public SaxHandler {
 public:
  explicit DomBuilder(std::shared_ptr<automata::Alphabet> intern_alphabet) {
    if (intern_alphabet != nullptr) {
      // Empty document: binding is O(1) and makes CreateElement intern.
      (void)doc_.BindInterning(std::move(intern_alphabet));
    }
  }

  Status StartElement(std::string_view name,
                      const std::vector<SaxAttribute>& attributes) override {
    NodeId node = doc_.CreateElement(name);
    for (const SaxAttribute& attr : attributes) {
      RETURN_IF_ERROR(doc_.AddAttribute(node, attr.name, attr.value));
    }
    if (stack_.empty()) {
      RETURN_IF_ERROR(doc_.SetRoot(node));
    } else {
      RETURN_IF_ERROR(doc_.AppendChild(stack_.back(), node));
    }
    stack_.push_back(node);
    return Status::OK();
  }

  Status EndElement(std::string_view) override {
    stack_.pop_back();
    return Status::OK();
  }

  Status Characters(std::string_view text) override {
    NodeId node = doc_.CreateText(text);
    return doc_.AppendChild(stack_.back(), node);
  }

  Document Take() { return std::move(doc_); }

 private:
  Document doc_;
  std::vector<NodeId> stack_;
};

// Restates a PushParser error, which names a byte offset, as the 1-based
// line:column of that byte in `input`. Only a failed parse counts lines.
Status AtLineColumn(std::string_view input, uint64_t offset,
                    const Status& status) {
  std::string_view before = input.substr(0, offset);
  const size_t line =
      1 + static_cast<size_t>(std::count(before.begin(), before.end(), '\n'));
  const size_t column = before.size() - (before.rfind('\n') + 1) + 1;
  std::string_view detail = status.message();
  detail.remove_prefix(detail.find(": ") + 2);
  return Status::ParseError(StrCat("XML parse error at ", std::to_string(line),
                                   ":", std::to_string(column), ": ", detail));
}

}  // namespace

Status ParseXmlEvents(std::string_view input, SaxHandler* handler,
                      const ParseOptions& options) {
  PushParser parser(handler, options);
  Status status = parser.Feed(input);
  if (status.ok()) status = parser.Finish();
  std::optional<uint64_t> error_offset = parser.error_offset();
  if (!error_offset.has_value()) return status;
  return AtLineColumn(input, *error_offset, status);
}

Result<Document> ParseXml(std::string_view input, const ParseOptions& options) {
  DomBuilder builder(options.intern_alphabet);
  RETURN_IF_ERROR(ParseXmlEvents(input, &builder, options));
  return builder.Take();
}

}  // namespace xmlreval::xml
