package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Machine-readable report encodings. JSON output is stable: reports are
// encoded from structs (never maps) with deterministic field order, and
// all measured values are deterministic virtual times, so re-running the
// same experiment yields byte-identical output — suitable for CI
// artifacts and trajectory files.

// Formats returns the accepted WriteReport format names.
func Formats() []string { return []string{"text", "json", "csv"} }

// WriteReport renders reports to w in the given format: "text" (the
// aligned tables cmd/experiments has always printed), "json" (one stable
// document with a "reports" array), or "csv" (one header+rows block per
// report, blocks separated by a blank line).
func WriteReport(w io.Writer, format string, reps ...Report) error {
	switch format {
	case "", "text":
		for _, rep := range reps {
			if _, err := fmt.Fprintln(w, rep); err != nil {
				return err
			}
		}
		return nil
	case "json":
		return writeJSON(w, reps)
	case "csv":
		return writeCSV(w, reps)
	default:
		return fmt.Errorf("experiments: unknown format %q (known: %v)", format, Formats())
	}
}

// jsonSeries mirrors Series with stable lower-case keys.
type jsonSeries struct {
	Name string    `json:"name"`
	Y    []float64 `json:"y"`
}

// jsonReport is the stable serialized form of any report kind; the unused
// kind's fields are omitted.
type jsonReport struct {
	Kind  string `json:"kind"` // "table", "figure" or "sweep"
	ID    string `json:"id"`
	Title string `json:"title"`
	Notes string `json:"notes,omitempty"`

	// Table fields.
	RowHeader string      `json:"row_header,omitempty"`
	Rows      []string    `json:"rows,omitempty"`
	Cols      []string    `json:"cols,omitempty"`
	Values    [][]float64 `json:"values,omitempty"`

	// Figure fields.
	XLabel string       `json:"x_label,omitempty"`
	X      []string     `json:"x,omitempty"`
	YLabel string       `json:"y_label,omitempty"`
	Series []jsonSeries `json:"series,omitempty"`

	// Sweep fields.
	Scenario  string     `json:"scenario,omitempty"`
	SweepRows []SweepRow `json:"sweep_rows,omitempty"`
}

func toJSONReport(rep Report) (jsonReport, error) {
	switch r := rep.(type) {
	case *Table:
		return jsonReport{
			Kind: "table", ID: r.ID, Title: r.Title, Notes: r.Notes,
			RowHeader: r.RowHeader, Rows: r.Rows, Cols: r.Cols, Values: r.Values,
		}, nil
	case *Figure:
		out := jsonReport{
			Kind: "figure", ID: r.ID, Title: r.Title, Notes: r.Notes,
			XLabel: r.XLabel, X: r.X, YLabel: r.YLabel,
		}
		for _, s := range r.Series {
			out.Series = append(out.Series, jsonSeries{Name: s.Name, Y: s.Y})
		}
		return out, nil
	case *SweepReport:
		return jsonReport{
			Kind: "sweep", ID: r.ID, Title: r.Title, Notes: r.Notes,
			Scenario: r.Scenario, SweepRows: r.Rows,
		}, nil
	default:
		return jsonReport{}, fmt.Errorf("experiments: cannot encode report type %T", rep)
	}
}

func writeJSON(w io.Writer, reps []Report) error {
	doc := struct {
		Reports []jsonReport `json:"reports"`
	}{Reports: make([]jsonReport, 0, len(reps))}
	for _, rep := range reps {
		jr, err := toJSONReport(rep)
		if err != nil {
			return err
		}
		doc.Reports = append(doc.Reports, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ftoa renders a float with Go's shortest round-trip representation,
// deterministic for a given value.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeCSV(w io.Writer, reps []Report) error {
	for i, rep := range reps {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		cw := csv.NewWriter(w)
		var err error
		switch r := rep.(type) {
		case *Table:
			err = tableCSV(cw, r)
		case *Figure:
			err = figureCSV(cw, r)
		case *SweepReport:
			err = sweepCSV(cw, r)
		default:
			return fmt.Errorf("experiments: cannot encode report type %T", rep)
		}
		if err != nil {
			return err
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
	}
	return nil
}

// tableCSV writes a table in long form: one record per cell.
func tableCSV(cw *csv.Writer, t *Table) error {
	if err := cw.Write([]string{"report", "row", "procs", "seconds"}); err != nil {
		return err
	}
	for i, row := range t.Rows {
		for j, col := range t.Cols {
			if err := cw.Write([]string{t.ID, row, col, ftoa(t.Values[i][j])}); err != nil {
				return err
			}
		}
	}
	return nil
}

// figureCSV writes a figure in long form: one record per (series, x).
func figureCSV(cw *csv.Writer, f *Figure) error {
	if err := cw.Write([]string{"report", "series", "x", "y"}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for i, x := range f.X {
			if err := cw.Write([]string{f.ID, s.Name, x, ftoa(s.Y[i])}); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepCSV writes one record per sweep row with the full metric set.
func sweepCSV(cw *csv.Writer, r *SweepReport) error {
	header := []string{"scenario", "procs", "partitioner", "exchange",
		"balancer", "network", "perturb", "iterations", "elapsed_s", "speedup", "edge_cut",
		"imbalance", "migrations", "messages_sent", "bytes_sent"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		p := row.Params
		rec := []string{
			row.Result.Scenario,
			strconv.Itoa(p.Procs), p.Partitioner, p.Exchange,
			p.Balancer, p.Network, p.Perturb, strconv.Itoa(p.Iterations),
			ftoa(row.Elapsed), ftoa(row.Speedup), strconv.Itoa(row.EdgeCut),
			ftoa(row.Imbalance), strconv.Itoa(row.Migrations),
			strconv.Itoa(row.MessagesSent), strconv.Itoa(row.BytesSent),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}
