package exp

import (
	"fmt"
	"io"
	"strings"
)

// WriteHTML renders the table as an HTML fragment (a <section> with a
// caption and a plain <table>). Numbers stay exactly as formatted for
// the ASCII/CSV writers; styling comes from the enclosing report.
func (t *Table) WriteHTML(w io.Writer) error {
	var b strings.Builder
	b.WriteString("<section class=\"tbl\">\n")
	if t.Title != "" {
		fmt.Fprintf(&b, "<h3>%s</h3>\n", htmlEsc(t.Title))
	}
	b.WriteString("<table>\n<thead><tr>")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "<th>%s</th>", htmlEsc(c))
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	for _, row := range t.Rows {
		b.WriteString("<tr>")
		for _, cell := range row {
			fmt.Fprintf(&b, "<td>%s</td>", htmlEsc(cell))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</tbody>\n</table>\n</section>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Report assembles tables and inline SVG figures into one
// self-contained HTML document — the artifact `cmd/paperfigs -html`
// produces. Chart surfaces are light-mode (the SVGs carry their own
// validated palette); the document itself is a plain report page.
type Report struct {
	Title    string
	Subtitle string
	sections []string
}

// AddHeading starts a new top-level section.
func (r *Report) AddHeading(h string) {
	r.sections = append(r.sections, fmt.Sprintf("<h2>%s</h2>\n", htmlEsc(h)))
}

// AddTable appends a table section.
func (r *Report) AddTable(t *Table) {
	var b strings.Builder
	t.WriteHTML(&b) // writing to a strings.Builder cannot fail
	r.sections = append(r.sections, b.String())
}

// AddSVG inlines a rendered SVG figure. The document is trusted (we
// generated it); it is embedded verbatim.
func (r *Report) AddSVG(svg string) {
	r.sections = append(r.sections, "<figure>\n"+svg+"</figure>\n")
}

// Write emits the full document.
func (r *Report) Write(w io.Writer) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", htmlEsc(r.Title))
	b.WriteString(`<style>
  body { font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
         background: #fcfcfb; color: #0b0b0b; max-width: 72rem;
         margin: 2rem auto; padding: 0 1.5rem; line-height: 1.45; }
  h1 { font-size: 1.4rem; } h2 { font-size: 1.15rem; margin-top: 2.2rem; }
  h3 { font-size: 0.95rem; color: #52514e; font-weight: 600; }
  p.sub { color: #52514e; }
  table { border-collapse: collapse; font-size: 0.8rem; margin: 0.6rem 0 1.4rem; }
  th { text-align: left; color: #52514e; font-weight: 600;
       border-bottom: 1px solid #d9d8d3; padding: 3px 10px 3px 0; }
  td { border-bottom: 1px solid #e9e8e4; padding: 3px 10px 3px 0;
       font-variant-numeric: tabular-nums; }
  figure { margin: 1rem 0; }
</style>
</head>
<body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", htmlEsc(r.Title))
	if r.Subtitle != "" {
		fmt.Fprintf(&b, "<p class=\"sub\">%s</p>\n", htmlEsc(r.Subtitle))
	}
	for _, s := range r.sections {
		b.WriteString(s)
	}
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func htmlEsc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
