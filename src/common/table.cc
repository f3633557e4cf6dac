#include "common/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace highlight
{

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    if (!header_.empty() && row.size() != header_.size())
        panic(msgOf("TextTable: row has ", row.size(), " cells, header has ",
                    header_.size()));
    rows_.push_back(std::move(row));
}

std::string
TextTable::fmt(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

void
TextTable::print(std::ostream &os) const
{
    // Column widths: max of header cell and each row cell.
    std::vector<std::size_t> widths;
    auto grow = [&widths](const std::vector<std::string> &cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(header_);
    for (const auto &row : rows_)
        grow(row);

    auto emit = [&os, &widths](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << cells[i];
        }
        os << "\n";
    };

    if (!title_.empty())
        os << "== " << title_ << " ==\n";
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        os << std::string(total, '-') << "\n";
    }
    for (const auto &row : rows_)
        emit(row);
}

namespace
{

/** A quoted JSON string (escapes backslash and double-quote). */
std::string
jsonCell(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
TextTable::printJson(std::ostream &os) const
{
    auto emitList = [&os](const std::vector<std::string> &cells) {
        os << "[";
        for (std::size_t i = 0; i < cells.size(); ++i)
            os << (i ? ", " : "") << jsonCell(cells[i]);
        os << "]";
    };
    os << "{\n  \"title\": " << jsonCell(title_) << ",\n  \"header\": ";
    emitList(header_);
    os << ",\n  \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        os << "    ";
        emitList(rows_[r]);
        os << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace highlight
