#include "xml/parser.h"

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "xml/sax.h"

namespace xmlreval::xml {
namespace {

// Recursive-descent cursor over the input with line/column tracking.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }

  char Advance() {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  bool Match(char c) {
    if (AtEnd() || Peek() != c) return false;
    Advance();
    return true;
  }

  bool MatchLiteral(std::string_view lit) {
    if (input_.substr(pos_, lit.size()) != lit) return false;
    for (size_t i = 0; i < lit.size(); ++i) Advance();
    return true;
  }

  bool StartsWith(std::string_view lit) const {
    return input_.substr(pos_, lit.size()) == lit;
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsXmlWhitespace(Peek())) Advance();
  }

  Status Error(std::string_view msg) const {
    return Status::ParseError("XML parse error at " + std::to_string(line_) +
                              ":" + std::to_string(column_) + ": " +
                              std::string(msg));
  }

  size_t pos() const { return pos_; }
  std::string_view Slice(size_t begin, size_t end) const {
    return input_.substr(begin, end - begin);
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

// The event-producing core. Pushes well-formedness-checked SAX events into
// the handler; maintains only the open-element tag stack.
class EventParser {
 public:
  EventParser(std::string_view input, const ParseOptions& options,
              SaxHandler* handler)
      : cursor_(input), options_(options), handler_(handler) {}

  Status Parse() {
    RETURN_IF_ERROR(ParseProlog());
    cursor_.SkipWhitespace();
    if (cursor_.AtEnd() || cursor_.Peek() != '<') {
      return cursor_.Error("expected root element");
    }
    RETURN_IF_ERROR(ParseContent());
    RETURN_IF_ERROR(SkipMisc());
    if (!cursor_.AtEnd()) {
      return cursor_.Error("content after document element");
    }
    return Status::OK();
  }

 private:
  Status ParseProlog() {
    cursor_.SkipWhitespace();
    if (cursor_.StartsWith("<?xml")) {
      RETURN_IF_ERROR(SkipPi());
    }
    while (true) {
      cursor_.SkipWhitespace();
      if (cursor_.StartsWith("<!--")) {
        RETURN_IF_ERROR(SkipComment());
      } else if (cursor_.StartsWith("<!DOCTYPE")) {
        RETURN_IF_ERROR(ParseDoctype());
      } else if (cursor_.StartsWith("<?")) {
        RETURN_IF_ERROR(SkipPi());
      } else {
        return Status::OK();
      }
    }
  }

  Status ParseDoctype() {
    if (!cursor_.MatchLiteral("<!DOCTYPE")) {
      return cursor_.Error("expected <!DOCTYPE");
    }
    cursor_.SkipWhitespace();
    ASSIGN_OR_RETURN(std::string name, ParseName());
    cursor_.SkipWhitespace();
    // External id: SYSTEM "..." or PUBLIC "..." "..." — skipped.
    if (cursor_.MatchLiteral("SYSTEM")) {
      cursor_.SkipWhitespace();
      RETURN_IF_ERROR(SkipQuotedLiteral());
    } else if (cursor_.MatchLiteral("PUBLIC")) {
      cursor_.SkipWhitespace();
      RETURN_IF_ERROR(SkipQuotedLiteral());
      cursor_.SkipWhitespace();
      RETURN_IF_ERROR(SkipQuotedLiteral());
    }
    cursor_.SkipWhitespace();
    std::string subset;
    if (cursor_.Match('[')) {
      size_t begin = cursor_.pos();
      int depth = 1;
      while (!cursor_.AtEnd()) {
        char c = cursor_.Peek();
        if (c == '[') ++depth;
        if (c == ']') {
          --depth;
          if (depth == 0) break;
        }
        cursor_.Advance();
      }
      if (cursor_.AtEnd()) return cursor_.Error("unterminated DOCTYPE subset");
      subset.assign(cursor_.Slice(begin, cursor_.pos()));
      cursor_.Advance();  // ']'
    }
    cursor_.SkipWhitespace();
    if (!cursor_.Match('>')) return cursor_.Error("expected '>' after DOCTYPE");
    return handler_->Doctype(name, subset);
  }

  Status SkipQuotedLiteral() {
    if (cursor_.AtEnd()) return cursor_.Error("expected quoted literal");
    char quote = cursor_.Peek();
    if (quote != '"' && quote != '\'') {
      return cursor_.Error("expected quoted literal");
    }
    cursor_.Advance();
    while (!cursor_.AtEnd() && cursor_.Peek() != quote) cursor_.Advance();
    if (cursor_.AtEnd()) return cursor_.Error("unterminated literal");
    cursor_.Advance();
    return Status::OK();
  }

  Status SkipComment() {
    if (!cursor_.MatchLiteral("<!--")) return cursor_.Error("expected <!--");
    while (!cursor_.AtEnd()) {
      if (cursor_.StartsWith("-->")) {
        cursor_.MatchLiteral("-->");
        return Status::OK();
      }
      if (cursor_.StartsWith("--")) {
        // XML forbids "--" inside comments (checked after the "-->" case).
        return cursor_.Error("'--' not allowed inside comment");
      }
      cursor_.Advance();
    }
    return cursor_.Error("unterminated comment");
  }

  Status SkipPi() {
    if (!cursor_.MatchLiteral("<?")) return cursor_.Error("expected <?");
    while (!cursor_.AtEnd()) {
      if (cursor_.MatchLiteral("?>")) return Status::OK();
      cursor_.Advance();
    }
    return cursor_.Error("unterminated processing instruction");
  }

  // Trailing misc after the root element.
  Status SkipMisc() {
    while (true) {
      cursor_.SkipWhitespace();
      if (cursor_.StartsWith("<!--")) {
        RETURN_IF_ERROR(SkipComment());
      } else if (cursor_.StartsWith("<?")) {
        RETURN_IF_ERROR(SkipPi());
      } else {
        return Status::OK();
      }
    }
  }

  Result<std::string> ParseName() {
    if (cursor_.AtEnd() || !IsNameStartChar(cursor_.Peek())) {
      return cursor_.Error("expected XML name");
    }
    size_t begin = cursor_.pos();
    cursor_.Advance();
    while (!cursor_.AtEnd() && IsNameChar(cursor_.Peek())) cursor_.Advance();
    return std::string(cursor_.Slice(begin, cursor_.pos()));
  }

  // Decodes &amp; &lt; &gt; &quot; &apos; and &#...; / &#x...; references.
  Status AppendReference(std::string* out) {
    // Cursor sits after '&'.
    if (cursor_.Match('#')) {
      bool hex = cursor_.Match('x');
      uint32_t code = 0;
      bool any = false;
      while (!cursor_.AtEnd() && cursor_.Peek() != ';') {
        char c = cursor_.Advance();
        uint32_t digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (hex && c >= 'a' && c <= 'f') {
          digit = 10 + (c - 'a');
        } else if (hex && c >= 'A' && c <= 'F') {
          digit = 10 + (c - 'A');
        } else {
          return cursor_.Error("invalid character reference");
        }
        code = code * (hex ? 16 : 10) + digit;
        if (code > 0x10FFFF) {
          return cursor_.Error("character reference out of range");
        }
        any = true;
      }
      if (!any || !cursor_.Match(';')) {
        return cursor_.Error("unterminated character reference");
      }
      AppendUtf8(code, out);
      return Status::OK();
    }
    ASSIGN_OR_RETURN(std::string name, ParseName());
    if (!cursor_.Match(';')) {
      return cursor_.Error("unterminated entity reference");
    }
    if (name == "amp") {
      *out += '&';
    } else if (name == "lt") {
      *out += '<';
    } else if (name == "gt") {
      *out += '>';
    } else if (name == "quot") {
      *out += '"';
    } else if (name == "apos") {
      *out += '\'';
    } else {
      return Status::Unsupported("general entity '&" + name +
                                 ";' is not supported");
    }
    return Status::OK();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<std::string> ParseAttributeValue() {
    char quote = cursor_.AtEnd() ? '\0' : cursor_.Peek();
    if (quote != '"' && quote != '\'') {
      return cursor_.Error("expected quoted attribute value");
    }
    cursor_.Advance();
    std::string value;
    while (!cursor_.AtEnd() && cursor_.Peek() != quote) {
      char c = cursor_.Peek();
      if (c == '<') return cursor_.Error("'<' not allowed in attribute value");
      if (c == '&') {
        cursor_.Advance();
        RETURN_IF_ERROR(AppendReference(&value));
      } else {
        value += cursor_.Advance();
      }
    }
    if (!cursor_.Match(quote)) {
      return cursor_.Error("unterminated attribute value");
    }
    return value;
  }

  Status FlushText() {
    if (pending_text_.empty()) return Status::OK();
    std::string text;
    text.swap(pending_text_);
    if (options_.skip_whitespace_text && TrimWhitespace(text).empty()) {
      return Status::OK();
    }
    if (open_tags_.empty()) {
      return cursor_.Error("text outside root element");
    }
    return handler_->Characters(text);
  }

  // Parses the root element's whole content, emitting events. Iterative:
  // the open-tag stack lives on the heap, so depth is unbounded.
  Status ParseContent() {
    while (true) {
      if (cursor_.AtEnd()) {
        return cursor_.Error(
            open_tags_.empty()
                ? "expected element"
                : "unexpected end of input inside '" + open_tags_.back() +
                      "'");
      }
      if (cursor_.Peek() == '<') {
        if (cursor_.StartsWith("<!--")) {
          RETURN_IF_ERROR(SkipComment());
          continue;
        }
        if (cursor_.StartsWith("<![CDATA[")) {
          cursor_.MatchLiteral("<![CDATA[");
          size_t begin = cursor_.pos();
          while (!cursor_.AtEnd() && !cursor_.StartsWith("]]>")) {
            cursor_.Advance();
          }
          if (cursor_.AtEnd()) return cursor_.Error("unterminated CDATA");
          std::string_view data = cursor_.Slice(begin, cursor_.pos());
          cursor_.MatchLiteral("]]>");
          if (open_tags_.empty()) {
            return cursor_.Error("CDATA outside root element");
          }
          pending_text_.append(data);
          continue;
        }
        if (cursor_.StartsWith("<?")) {
          RETURN_IF_ERROR(SkipPi());
          continue;
        }
        if (cursor_.StartsWith("</")) {
          RETURN_IF_ERROR(FlushText());
          cursor_.MatchLiteral("</");
          ASSIGN_OR_RETURN(std::string tag, ParseName());
          cursor_.SkipWhitespace();
          if (!cursor_.Match('>')) return cursor_.Error("expected '>'");
          if (open_tags_.empty()) {
            return cursor_.Error("unmatched closing tag");
          }
          if (open_tags_.back() != tag) {
            return cursor_.Error("mismatched closing tag '</" + tag +
                                 ">'; open element is '" + open_tags_.back() +
                                 "'");
          }
          RETURN_IF_ERROR(handler_->EndElement(tag));
          open_tags_.pop_back();
          if (open_tags_.empty()) return Status::OK();
          continue;
        }
        // Start tag.
        RETURN_IF_ERROR(FlushText());
        cursor_.Advance();  // '<'
        ASSIGN_OR_RETURN(std::string tag, ParseName());
        attr_storage_.clear();
        bool self_closing = false;
        while (true) {
          cursor_.SkipWhitespace();
          if (cursor_.AtEnd()) return cursor_.Error("unterminated start tag");
          if (cursor_.Match('>')) break;
          if (cursor_.MatchLiteral("/>")) {
            self_closing = true;
            break;
          }
          ASSIGN_OR_RETURN(std::string attr_name, ParseName());
          cursor_.SkipWhitespace();
          if (!cursor_.Match('=')) {
            return cursor_.Error("expected '=' after attribute name");
          }
          cursor_.SkipWhitespace();
          ASSIGN_OR_RETURN(std::string attr_value, ParseAttributeValue());
          for (const auto& [existing, unused] : attr_storage_) {
            if (existing == attr_name) {
              return cursor_.Error("duplicate attribute '" + attr_name + "'");
            }
          }
          attr_storage_.emplace_back(std::move(attr_name),
                                     std::move(attr_value));
        }
        attr_views_.clear();
        for (const auto& [name, value] : attr_storage_) {
          attr_views_.push_back(SaxAttribute{name, value});
        }
        RETURN_IF_ERROR(handler_->StartElement(tag, attr_views_));
        if (self_closing) {
          RETURN_IF_ERROR(handler_->EndElement(tag));
          if (open_tags_.empty()) return Status::OK();
        } else {
          open_tags_.push_back(std::move(tag));
        }
        continue;
      }
      // Character data.
      char c = cursor_.Peek();
      if (c == '&') {
        cursor_.Advance();
        RETURN_IF_ERROR(AppendReference(&pending_text_));
        continue;
      }
      if (open_tags_.empty() && !IsXmlWhitespace(c)) {
        return cursor_.Error("text outside root element");
      }
      pending_text_ += cursor_.Advance();
    }
  }

  Cursor cursor_;
  ParseOptions options_;
  SaxHandler* handler_;
  std::vector<std::string> open_tags_;
  std::string pending_text_;
  std::vector<std::pair<std::string, std::string>> attr_storage_;
  std::vector<SaxAttribute> attr_views_;
};

// SAX handler that materializes the DOM.
class DomBuilder : public SaxHandler {
 public:
  explicit DomBuilder(std::shared_ptr<automata::Alphabet> intern_alphabet) {
    if (intern_alphabet != nullptr) {
      // Empty document: binding is O(1) and makes CreateElement intern.
      (void)doc_.BindInterning(std::move(intern_alphabet));
    }
  }

  Status Doctype(std::string_view name, std::string_view subset) override {
    doctype_name_.assign(name);
    internal_subset_.assign(subset);
    return Status::OK();
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

  ParsedWithDoctype Take() {
    return ParsedWithDoctype{std::move(doc_), std::move(doctype_name_),
                             std::move(internal_subset_)};
  }

 private:
  Document doc_;
  std::vector<NodeId> stack_;
  std::string doctype_name_;
  std::string internal_subset_;
};

}  // namespace

Status ParseXmlEvents(std::string_view input, SaxHandler* handler,
                      const ParseOptions& options) {
  XMLREVAL_CHECK(handler != nullptr, "ParseXmlEvents requires a handler");
  return EventParser(input, options, handler).Parse();
}

Result<Document> ParseXml(std::string_view input, const ParseOptions& options) {
  DomBuilder builder(options.intern_alphabet);
  RETURN_IF_ERROR(ParseXmlEvents(input, &builder, options));
  return std::move(builder.Take().document);
}

Result<ParsedWithDoctype> ParseXmlWithDoctype(std::string_view input,
                                              const ParseOptions& options) {
  DomBuilder builder(options.intern_alphabet);
  RETURN_IF_ERROR(ParseXmlEvents(input, &builder, options));
  return builder.Take();
}

}  // namespace xmlreval::xml
