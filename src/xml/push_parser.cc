#include "xml/push_parser.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_set>

#include "common/macros.h"
#include "common/string_util.h"

namespace xmlreval::xml {
namespace {

constexpr std::string_view kCDataOpen = "<![CDATA[";
constexpr std::string_view kDoctypeOpen = "<!DOCTYPE";
// A numeric character reference carried longer than this (its leading
// zeros collapsed to one) is out of range; an entity name longer than this
// is never one we decode, so the rest of it is not carried.
constexpr size_t kMaxNumericRef = 16;   // "&#x" + digits
constexpr size_t kMaxEntityName = 256;  // "&" + name
// A start tag with more attributes than this finds a duplicate name with a
// hash set instead of comparing each name with every earlier one.
constexpr size_t kLinearAttributeScan = 16;

void AppendUtf8(uint32_t code, std::string* out) {
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

}  // namespace

PushParser::PushParser(SaxHandler* handler, const ParseOptions& options)
    : handler_(handler), options_(options) {
  XMLREVAL_CHECK(handler != nullptr, "PushParser requires a handler");
}

uint64_t PushParser::OffsetOf(const char* q) const {
  return end_offset_ - static_cast<uint64_t>(end_ - q);
}

Status PushParser::ErrorAt(uint64_t offset, std::string_view message) {
  error_offset_ = offset;
  return Status::ParseError(StrCat("XML parse error at byte ",
                                   std::to_string(offset), ": ", message));
}

void PushParser::CarryByte(char c) {
  carry_ += c;
  peak_carry_ = std::max<uint64_t>(peak_carry_, carry_.size());
}

void PushParser::CarryBytes(const char* begin, const char* end) {
  carry_.append(begin, static_cast<size_t>(end - begin));
  peak_carry_ = std::max<uint64_t>(peak_carry_, carry_.size());
}

std::string_view PushParser::TakeConstruct(const char* end) {
  std::string_view construct;
  if (carry_offset_ >= chunk_offset_) {  // began in this chunk
    const char* begin = end_ - (end_offset_ - carry_offset_);
    construct = std::string_view(begin, static_cast<size_t>(end - begin));
  } else {
    CarryBytes(p_, end);
    construct = carry_;
  }
  p_ = end;
  return construct;
}

void PushParser::CarryStart(char c) {
  carry_offset_ = Offset();
  carry_.clear();
  CarryByte(c);
}

void PushParser::SkipCurrentSubtree() {
  XMLREVAL_CHECK(in_start_element_,
                 "SkipCurrentSubtree is only callable from StartElement");
  skip_requested_ = true;
}

Status PushParser::Feed(std::string_view chunk) {
  if (failed_) return final_status_;
  if (finished_) {
    return Status::InvalidArgument("PushParser::Feed after Finish");
  }
  chunk_offset_ = bytes_fed_;
  bytes_fed_ += chunk.size();
  p_ = chunk.data();
  end_ = chunk.data() + chunk.size();
  end_offset_ = bytes_fed_;
  Status status = Run();
  p_ = end_ = nullptr;
  if (!status.ok()) {
    failed_ = true;
    final_status_ = status;
  }
  return status;
}

Status PushParser::Run() {
  while (p_ < end_) {
    if (mode_ == Mode::kSkip) {
      RETURN_IF_ERROR(RunSkip());
      continue;
    }
    switch (sub_) {
      case Sub::kText:
        RETURN_IF_ERROR(mode_ == Mode::kContent ? RunContentText()
                                                : RunMiscText());
        break;
      case Sub::kMarkupLt:
        RETURN_IF_ERROR(RunMarkupLt());
        break;
      case Sub::kMarkupBang:
        RETURN_IF_ERROR(RunMarkupBang());
        break;
      case Sub::kStartTagAcc:
        RETURN_IF_ERROR(RunStartTagAcc());
        break;
      case Sub::kEndTagAcc:
        RETURN_IF_ERROR(RunEndTagAcc());
        break;
      case Sub::kDoctypeAcc:
        RETURN_IF_ERROR(RunDoctypeAcc());
        break;
      case Sub::kCharRef:
        RETURN_IF_ERROR(RunCharRef());
        break;
      case Sub::kComment:
      case Sub::kCommentDash:
      case Sub::kCommentDashDash:
        RETURN_IF_ERROR(RunComment());
        break;
      case Sub::kCData:
      case Sub::kCDataBracket:
      case Sub::kCDataBracketBracket:
        RETURN_IF_ERROR(RunCData());
        break;
      case Sub::kPi:
      case Sub::kPiQ:
        RETURN_IF_ERROR(RunPi());
        break;
    }
  }
  return Status::OK();
}

Status PushParser::RunSkip() {
  size_t consumed = 0;
  SkipScanner::Result result =
      skipper_.Scan(std::string_view(p_, static_cast<size_t>(end_ - p_)),
                    &consumed);
  bytes_skipped_ += consumed;
  p_ += consumed;
  switch (result) {
    case SkipScanner::Result::kNeedMore:
      return Status::OK();
    case SkipScanner::Result::kDone:
      mode_ = skip_is_root_ ? Mode::kEpilog : Mode::kContent;
      sub_ = Sub::kText;
      return Status::OK();
    case SkipScanner::Result::kError:
      return Error(skipper_.error());
  }
  return Status::OK();
}

// Character data inside the root element. The invariant that makes this
// simple: in kContent/kText the open-tag stack is never empty (the root's
// start tag switches the mode, and popping the root switches to kEpilog).
Status PushParser::RunContentText() {
  const size_t n = static_cast<size_t>(end_ - p_);
  const char* stop = FindByteSimd(p_, n, '<');
  size_t span = stop == nullptr ? n : static_cast<size_t>(stop - p_);
  const char* amp = FindByteSimd(p_, span, '&');
  if (amp != nullptr) {
    stop = amp;
    span = static_cast<size_t>(amp - p_);
  }
  pending_text_.append(p_, span);
  p_ += span;
  if (stop == nullptr) {
    return Status::OK();
  }
  if (*p_ == '<') {
    CarryStart('<');
    ++p_;
    sub_ = Sub::kMarkupLt;
    return p_ < end_ ? RunMarkupLt() : Status::OK();
  }
  CarryStart('&');
  ++p_;
  sub_ = Sub::kCharRef;
  return Status::OK();
}

// Whitespace / markup boundary in the prolog and the epilog.
Status PushParser::RunMiscText() {
  while (p_ < end_) {
    char c = *p_;
    if (IsXmlWhitespace(c)) {
      ++p_;
      continue;
    }
    if (c == '<') {
      CarryStart('<');
      ++p_;
      sub_ = Sub::kMarkupLt;
      return Status::OK();
    }
    return Error(mode_ == Mode::kProlog ? "expected root element"
                                        : "content after document element");
  }
  return Status::OK();
}

Status PushParser::RunMarkupLt() {
  char c = *p_;
  if (c == '?') {
    ++p_;
    carry_.clear();
    sub_ = Sub::kPi;
    return Status::OK();
  }
  if (c == '!') {
    CarryByte(c);
    ++p_;
    sub_ = Sub::kMarkupBang;
    return Status::OK();
  }
  if (mode_ == Mode::kEpilog) {
    return ErrorAt(carry_offset_, "content after document element");
  }
  // Tags are classified without consuming: the Acc states lex them in
  // place from here.
  if (c == '/') {
    sub_ = Sub::kEndTagAcc;
    return RunEndTagAcc();
  }
  if (IsNameStartChar(c)) {
    if (mode_ == Mode::kProlog) mode_ = Mode::kContent;  // the root arrives
    tag_quote_ = 0;
    sub_ = Sub::kStartTagAcc;
    return RunStartTagAcc();
  }
  return ErrorAt(carry_offset_ + 1, "expected XML name");
}

Status PushParser::RunMarkupBang() {
  auto bad = [&] {
    return mode_ == Mode::kEpilog
               ? ErrorAt(carry_offset_, "content after document element")
               : ErrorAt(carry_offset_ + 1, "expected XML name");
  };
  while (p_ < end_) {
    char c = *p_;
    if (carry_.size() == 2) {  // "<!"
      if (c == '-') {
        CarryByte(c);
        ++p_;
        continue;
      }
      if (c == '[' && mode_ != Mode::kEpilog) {
        CarryByte(c);
        ++p_;
        continue;
      }
      if (c == 'D' && mode_ == Mode::kProlog) {
        CarryByte(c);
        ++p_;
        continue;
      }
      return bad();
    }
    if (carry_[2] == '-') {  // "<!-"
      if (c != '-') return bad();
      ++p_;
      carry_.clear();
      sub_ = Sub::kComment;
      return Status::OK();
    }
    if (carry_[2] == '[') {  // matching "<![CDATA["
      if (c != kCDataOpen[carry_.size()]) return bad();
      CarryByte(c);
      ++p_;
      if (carry_.size() == kCDataOpen.size()) {
        if (mode_ != Mode::kContent) {
          return ErrorAt(carry_offset_, "CDATA outside root element");
        }
        carry_.clear();
        sub_ = Sub::kCData;
        return Status::OK();
      }
      continue;
    }
    // Matching "<!DOCTYPE" (prolog only; 'D' is rejected above elsewhere).
    if (c != kDoctypeOpen[carry_.size()]) return bad();
    CarryByte(c);
    ++p_;
    if (carry_.size() == kDoctypeOpen.size()) {
      doctype_quote_ = 0;
      doctype_depth_ = 0;
      sub_ = Sub::kDoctypeAcc;
      return Status::OK();
    }
  }
  return Status::OK();
}

// Tag lexing scans for the closing '>' without copying. Only a tag still
// open at the end of the chunk moves its bytes into carry_.
Status PushParser::RunStartTagAcc() {
  for (const char* q = p_; q < end_; ++q) {
    const char c = *q;
    if (tag_quote_ != 0) {
      if (c == '<') {
        return ErrorAt(OffsetOf(q), "'<' not allowed in attribute value");
      }
      if (c == tag_quote_) tag_quote_ = 0;
      continue;
    }
    if (c == '>') return HandleStartTag(TakeConstruct(q + 1), carry_offset_);
    if (c == '<') return ErrorAt(OffsetOf(q), "expected XML name");
    if (c == '"' || c == '\'') tag_quote_ = c;
  }
  CarryBytes(p_, end_);
  p_ = end_;
  return Status::OK();
}

Status PushParser::RunEndTagAcc() {
  const size_t n = static_cast<size_t>(end_ - p_);
  const char* gt = static_cast<const char*>(std::memchr(p_, '>', n));
  if (gt != nullptr) return HandleEndTag(TakeConstruct(gt + 1), carry_offset_);
  CarryBytes(p_, end_);
  p_ = end_;
  return Status::OK();
}

Status PushParser::RunDoctypeAcc() {
  while (p_ < end_) {
    char c = *p_;
    CarryByte(c);
    ++p_;
    if (doctype_quote_ != 0) {
      if (c == doctype_quote_) doctype_quote_ = 0;
    } else if (doctype_depth_ > 0) {
      // The internal subset is scanned for bracket nesting only; quotes are
      // not special inside it.
      if (c == '[') ++doctype_depth_;
      else if (c == ']') --doctype_depth_;
    } else if (c == '[') {
      doctype_depth_ = 1;
    } else if (c == '"' || c == '\'') {
      doctype_quote_ = c;
    } else if (c == '>') {
      return HandleDoctype();
    }
  }
  return Status::OK();
}

Status PushParser::RunCharRef() {
  while (p_ < end_) {
    char c = *p_;
    if (c == ';') {
      CarryByte(c);
      ++p_;
      return HandleCharRef();
    }
    if (carry_.size() == 1) {  // just "&"
      if (c != '#' && !IsNameStartChar(c)) {
        return Error("expected XML name");
      }
    } else if (carry_[1] == '#') {
      bool hex_marker = carry_.size() == 2 && c == 'x';
      bool hex = carry_.size() > 2 && carry_[2] == 'x';
      bool digit = (c >= '0' && c <= '9') ||
                   (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')));
      if (!hex_marker && !digit) {
        return Error("invalid character reference");
      }
      // Leading zeros add nothing to the value: keep one, so "&#00...065;"
      // of any length decodes while the carry stays bounded.
      if (c == '0' && carry_.back() == '0' &&
          carry_.size() == (hex ? 4u : 3u)) {
        ++p_;
        continue;
      }
      if (carry_.size() >= kMaxNumericRef) {
        return Error("character reference out of range");
      }
    } else {
      if (!IsNameChar(c)) return Error("unterminated entity reference");
      if (carry_.size() >= kMaxEntityName) {
        // Never a predefined entity: scan on for its ';' uncarried; the
        // unsupported-entity message then quotes a truncated name.
        ++p_;
        continue;
      }
    }
    CarryByte(c);
    ++p_;
  }
  return Status::OK();
}

Status PushParser::HandleCharRef() {
  // carry_ is "&" ... ";", each byte already checked by RunCharRef; the
  // decoder is the one attribute values use. A number's leading zeros
  // that RunCharRef did not carry precede every byte the decoder can
  // blame, so they shift its offsets by their count. (The uncarried tail
  // of an over-long name only shortens the unsupported-entity message.)
  const uint64_t uncarried = Offset() - carry_offset_ - carry_.size();
  size_t pos = 1;
  RETURN_IF_ERROR(AppendReferenceAt(carry_, &pos, &pending_text_,
                                    carry_offset_ + uncarried));
  carry_.clear();
  sub_ = Sub::kText;
  return Status::OK();
}

Status PushParser::RunComment() {
  while (p_ < end_) {
    if (sub_ == Sub::kComment) {
      const char* dash = FindByteSimd(p_, static_cast<size_t>(end_ - p_), '-');
      if (dash == nullptr) {
        p_ = end_;
        return Status::OK();
      }
      p_ = dash + 1;
      sub_ = Sub::kCommentDash;
    } else if (sub_ == Sub::kCommentDash) {
      sub_ = (*p_++ == '-') ? Sub::kCommentDashDash : Sub::kComment;
    } else {  // kCommentDashDash
      if (*p_++ != '>') return Error("'--' not allowed inside comment");
      sub_ = Sub::kText;
      return Status::OK();
    }
  }
  return Status::OK();
}

Status PushParser::RunCData() {
  while (p_ < end_) {
    if (sub_ == Sub::kCData) {
      const char* br = FindByteSimd(p_, static_cast<size_t>(end_ - p_), ']');
      size_t span = br == nullptr ? static_cast<size_t>(end_ - p_)
                                  : static_cast<size_t>(br - p_);
      pending_text_.append(p_, span);
      p_ += span;
      if (br == nullptr) return Status::OK();
      ++p_;  // the ']'
      sub_ = Sub::kCDataBracket;
    } else if (sub_ == Sub::kCDataBracket) {
      char c = *p_++;
      if (c == ']') {
        sub_ = Sub::kCDataBracketBracket;
      } else {
        pending_text_ += ']';
        pending_text_ += c;
        sub_ = Sub::kCData;
      }
    } else {  // kCDataBracketBracket
      char c = *p_++;
      if (c == '>') {
        sub_ = Sub::kText;
        return Status::OK();
      }
      if (c == ']') {
        // "]]]" — emit one ']' and keep the two-bracket window open.
        pending_text_ += ']';
      } else {
        pending_text_ += "]]";
        pending_text_ += c;
        sub_ = Sub::kCData;
      }
    }
  }
  return Status::OK();
}

Status PushParser::RunPi() {
  while (p_ < end_) {
    if (sub_ == Sub::kPi) {
      const char* q = FindByteSimd(p_, static_cast<size_t>(end_ - p_), '?');
      if (q == nullptr) {
        p_ = end_;
        return Status::OK();
      }
      p_ = q + 1;
      sub_ = Sub::kPiQ;
    } else {  // kPiQ
      char c = *p_++;
      if (c == '>') {
        sub_ = Sub::kText;
        return Status::OK();
      }
      if (c != '?') sub_ = Sub::kPi;
    }
  }
  return Status::OK();
}

Status PushParser::AppendReferenceAt(std::string_view text, size_t* pos,
                                     std::string* out,
                                     uint64_t text_offset) {
  size_t i = *pos;
  auto err = [&](std::string_view msg) {
    *pos = i;
    return ErrorAt(text_offset + i, msg);
  };
  if (i < text.size() && text[i] == '#') {
    ++i;
    bool hex = i < text.size() && text[i] == 'x';
    if (hex) ++i;
    uint32_t code = 0;
    bool any = false;
    while (i < text.size() && text[i] != ';') {
      char c = text[i];
      uint32_t digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (hex && c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
      else if (hex && c >= 'A' && c <= 'F') digit = 10 + (c - 'A');
      else return err("invalid character reference");
      ++i;
      code = code * (hex ? 16 : 10) + digit;
      if (code > 0x10FFFF) return err("character reference out of range");
      any = true;
    }
    if (!any || i >= text.size()) {
      return err("unterminated character reference");
    }
    ++i;  // ';'
    AppendUtf8(code, out);
    *pos = i;
    return Status::OK();
  }
  if (i >= text.size() || !IsNameStartChar(text[i])) {
    return err("expected XML name");
  }
  size_t name_begin = i;
  while (i < text.size() && IsNameChar(text[i])) ++i;
  std::string_view name = text.substr(name_begin, i - name_begin);
  if (i >= text.size() || text[i] != ';') {
    return err("unterminated entity reference");
  }
  ++i;
  if (name == "amp") *out += '&';
  else if (name == "lt") *out += '<';
  else if (name == "gt") *out += '>';
  else if (name == "quot") *out += '"';
  else if (name == "apos") *out += '\'';
  else {
    return Status::Unsupported(StrCat("general entity '&", name,
                                      ";' is not supported"));
  }
  *pos = i;
  return Status::OK();
}

Status PushParser::HandleStartTag(std::string_view tag, uint64_t offset) {
  // `tag` is the whole tag, '<' through '>' inclusive, quotes balanced.
  size_t i = 1;
  auto err = [&](std::string_view msg) { return ErrorAt(offset + i, msg); };
  size_t name_begin = i;
  while (i < tag.size() && IsNameChar(tag[i])) ++i;
  std::string_view name = tag.substr(name_begin, i - name_begin);

  attr_storage_.clear();
  // The names seen so far, made once the tag outgrows the linear scan.
  std::optional<std::unordered_set<std::string_view>> seen_names;
  bool self_closing = false;
  while (true) {
    while (i < tag.size() && IsXmlWhitespace(tag[i])) ++i;
    if (i >= tag.size()) return err("unterminated start tag");
    if (tag[i] == '>') break;
    if (tag[i] == '/') {
      if (i + 1 >= tag.size() || tag[i + 1] != '>') {
        ++i;
        return err("expected XML name");
      }
      self_closing = true;
      i += 2;
      break;
    }
    if (!IsNameStartChar(tag[i])) return err("expected XML name");
    size_t attr_begin = i;
    while (i < tag.size() && IsNameChar(tag[i])) ++i;
    std::string_view attr_name = tag.substr(attr_begin, i - attr_begin);
    while (i < tag.size() && IsXmlWhitespace(tag[i])) ++i;
    if (i >= tag.size() || tag[i] != '=') {
      return err("expected '=' after attribute name");
    }
    ++i;
    while (i < tag.size() && IsXmlWhitespace(tag[i])) ++i;
    if (i >= tag.size() || (tag[i] != '"' && tag[i] != '\'')) {
      return err("expected quoted attribute value");
    }
    char quote = tag[i++];
    std::string value;
    while (i < tag.size() && tag[i] != quote) {
      char c = tag[i];
      if (c == '<') return err("'<' not allowed in attribute value");
      if (c == '&') {
        ++i;
        RETURN_IF_ERROR(AppendReferenceAt(tag, &i, &value, offset));
      } else {
        value += c;
        ++i;
      }
    }
    if (i >= tag.size()) return err("unterminated attribute value");
    ++i;  // closing quote
    bool duplicate = false;
    if (attr_storage_.size() < kLinearAttributeScan) {
      for (const auto& [existing, unused] : attr_storage_) {
        if (existing == attr_name) {
          duplicate = true;
          break;
        }
      }
    } else {
      if (!seen_names) {
        seen_names.emplace();
        for (const auto& [existing, unused] : attr_storage_) {
          seen_names->insert(existing);
        }
      }
      duplicate = !seen_names->insert(attr_name).second;
    }
    if (duplicate) return err(StrCat("duplicate attribute '", attr_name, "'"));
    attr_storage_.emplace_back(attr_name, std::move(value));
  }

  attr_views_.clear();
  for (const auto& [aname, avalue] : attr_storage_) {
    attr_views_.push_back(SaxAttribute{aname, avalue});
  }

  RETURN_IF_ERROR(EmitText());
  in_start_element_ = true;
  skip_requested_ = false;
  Status handled = handler_->StartElement(name, attr_views_);
  in_start_element_ = false;
  RETURN_IF_ERROR(handled);
  const bool skip = skip_requested_;
  skip_requested_ = false;

  if (self_closing) {
    // A skipped self-closing element has no subtree: only its EndElement
    // is suppressed.
    if (!skip) RETURN_IF_ERROR(handler_->EndElement(name));
    if (open_tag_begins_.empty()) mode_ = Mode::kEpilog;  // it was the root
    carry_.clear();
    sub_ = Sub::kText;
    return Status::OK();
  }
  if (skip) {
    skip_is_root_ = open_tag_begins_.empty();
    skipper_.Begin();
    mode_ = Mode::kSkip;
    sub_ = Sub::kText;
    carry_.clear();
    return Status::OK();
  }
  open_tag_begins_.push_back(open_tag_names_.size());
  open_tag_names_.append(name);
  carry_.clear();
  sub_ = Sub::kText;
  return Status::OK();
}

Status PushParser::HandleEndTag(std::string_view tag, uint64_t offset) {
  // `tag` is "</" ... ">", '>' being the final byte.
  size_t i = 2;
  auto err = [&](std::string_view msg) { return ErrorAt(offset + i, msg); };
  if (i >= tag.size() || !IsNameStartChar(tag[i])) {
    return err("expected XML name");
  }
  size_t name_begin = i;
  while (i < tag.size() && IsNameChar(tag[i])) ++i;
  std::string_view name = tag.substr(name_begin, i - name_begin);
  while (i < tag.size() && IsXmlWhitespace(tag[i])) ++i;
  if (i + 1 != tag.size() || tag[i] != '>') return err("expected '>'");

  RETURN_IF_ERROR(EmitText());
  if (open_tag_begins_.empty()) {
    return ErrorAt(offset, "unmatched closing tag");
  }
  if (InnermostOpenTag() != name) {
    return ErrorAt(offset,
                   StrCat("mismatched closing tag '</", name,
                          ">'; open element is '", InnermostOpenTag(), "'"));
  }
  RETURN_IF_ERROR(handler_->EndElement(name));
  open_tag_names_.resize(open_tag_begins_.back());
  open_tag_begins_.pop_back();
  if (open_tag_begins_.empty()) mode_ = Mode::kEpilog;
  carry_.clear();
  sub_ = Sub::kText;
  return Status::OK();
}

Status PushParser::HandleDoctype() {
  // carry_ is "<!DOCTYPE" ... ">", quotes and brackets balanced.
  const std::string_view text(carry_);
  size_t i = kDoctypeOpen.size();
  auto err = [&](std::string_view msg) {
    return ErrorAt(carry_offset_ + i, msg);
  };
  auto skip_ws = [&] {
    while (i < text.size() && IsXmlWhitespace(text[i])) ++i;
  };
  auto skip_literal = [&]() -> Status {
    if (i >= text.size() || (text[i] != '"' && text[i] != '\'')) {
      return err("expected quoted literal");
    }
    char quote = text[i++];
    while (i < text.size() && text[i] != quote) ++i;
    if (i >= text.size()) return err("unterminated literal");
    ++i;
    return Status::OK();
  };

  skip_ws();
  if (i >= text.size() || !IsNameStartChar(text[i])) {
    return err("expected XML name");
  }
  size_t name_begin = i;
  while (i < text.size() && IsNameChar(text[i])) ++i;
  std::string_view name = text.substr(name_begin, i - name_begin);
  skip_ws();
  if (text.substr(i, 6) == "SYSTEM") {
    i += 6;
    skip_ws();
    RETURN_IF_ERROR(skip_literal());
  } else if (text.substr(i, 6) == "PUBLIC") {
    i += 6;
    skip_ws();
    RETURN_IF_ERROR(skip_literal());
    skip_ws();
    RETURN_IF_ERROR(skip_literal());
  }
  skip_ws();
  std::string_view subset;
  if (i < text.size() && text[i] == '[') {
    size_t begin = ++i;
    int depth = 1;
    while (i < text.size()) {
      if (text[i] == '[') ++depth;
      if (text[i] == ']' && --depth == 0) break;
      ++i;
    }
    if (i >= text.size()) return err("unterminated DOCTYPE subset");
    subset = text.substr(begin, i - begin);
    ++i;  // ']'
  }
  skip_ws();
  if (i + 1 != text.size() || text[i] != '>') {
    return err("expected '>' after DOCTYPE");
  }
  RETURN_IF_ERROR(handler_->Doctype(name, subset));
  carry_.clear();
  sub_ = Sub::kText;
  return Status::OK();
}

Status PushParser::EmitText() {
  if (pending_text_.empty()) return Status::OK();
  Status status = Status::OK();
  if (!options_.skip_whitespace_text || !IsAllXmlWhitespace(pending_text_)) {
    status = handler_->Characters(pending_text_);
  }
  pending_text_.clear();  // keeps its capacity for the next text run
  return status;
}

Status PushParser::Finish() {
  if (failed_ || finished_) return final_status_;
  finished_ = true;
  const uint64_t at = bytes_fed_;
  Status status = Status::OK();
  if (mode_ == Mode::kSkip) {
    status = ErrorAt(at, "unexpected end of input inside skipped subtree");
  } else {
    switch (sub_) {
      case Sub::kText:
        if (mode_ == Mode::kProlog) {
          status = ErrorAt(at, "expected root element");
        } else if (mode_ == Mode::kContent) {
          status = ErrorAt(at, StrCat("unexpected end of input inside '",
                                      InnermostOpenTag(), "'"));
        }
        // kEpilog: complete document.
        break;
      case Sub::kMarkupLt:
      case Sub::kMarkupBang:
        status = ErrorAt(at, "expected XML name");
        break;
      case Sub::kStartTagAcc:
        status = ErrorAt(at, tag_quote_ != 0 ? "unterminated attribute value"
                                             : "unterminated start tag");
        break;
      case Sub::kEndTagAcc:
        status = ErrorAt(at, carry_.size() <= 2 ? "expected XML name"
                                                : "expected '>'");
        break;
      case Sub::kDoctypeAcc:
        status = ErrorAt(at, doctype_depth_ > 0
                                 ? "unterminated DOCTYPE subset"
                                 : doctype_quote_ != 0
                                       ? "unterminated literal"
                                       : "expected '>' after DOCTYPE");
        break;
      case Sub::kCharRef:
        status = ErrorAt(at, carry_.size() < 2 ? "expected XML name"
                             : carry_[1] == '#'
                                 ? "unterminated character reference"
                                 : "unterminated entity reference");
        break;
      case Sub::kComment:
      case Sub::kCommentDash:
      case Sub::kCommentDashDash:
        status = ErrorAt(at, "unterminated comment");
        break;
      case Sub::kCData:
      case Sub::kCDataBracket:
      case Sub::kCDataBracketBracket:
        status = ErrorAt(at, "unterminated CDATA");
        break;
      case Sub::kPi:
      case Sub::kPiQ:
        status = ErrorAt(at, "unterminated processing instruction");
        break;
    }
  }
  if (!status.ok()) failed_ = true;
  final_status_ = status;
  return final_status_;
}

}  // namespace xmlreval::xml
