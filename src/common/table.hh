/**
 * @file
 * Plain-text table emitter.
 *
 * Every bench binary regenerates one of the paper's tables or figures as
 * rows of text; TextTable keeps the formatting consistent (aligned
 * columns, optional title, JSON export).
 */

#ifndef HIGHLIGHT_COMMON_TABLE_HH
#define HIGHLIGHT_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace highlight
{

/**
 * A simple column-aligned text table.
 *
 * Usage:
 * @code
 *   TextTable t("Fig 14: geomean metrics");
 *   t.setHeader({"design", "EDP", "energy", "latency"});
 *   t.addRow({"HighLight", "0.21", "0.39", "0.54"});
 *   t.print(std::cout);
 * @endcode
 */
class TextTable
{
  public:
    TextTable() = default;
    explicit TextTable(std::string title) : title_(std::move(title)) {}

    /** Set the column headers (defines the column count). */
    void setHeader(std::vector<std::string> header);

    /** Append one row; must match the header's column count if set. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with the given precision. */
    static std::string fmt(double value, int precision = 3);

    /** Render the aligned table. */
    void print(std::ostream &os) const;

    /**
     * Render as JSON: {"title": ..., "header": [...], "rows": [[...]]}.
     * Cells are already formatted strings, so two dumps byte-compare
     * equal iff the tabulated results are identical — the property the
     * driver smoke tests rely on to diff serial vs. parallel runs.
     */
    void printJson(std::ostream &os) const;

    /** Number of data rows added so far. */
    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace highlight

#endif // HIGHLIGHT_COMMON_TABLE_HH
