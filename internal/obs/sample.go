package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// DefaultSamplePeriod is the sampling epoch in cycles: coarse enough that
// snapshot work is invisible next to the model's per-cycle event churn,
// fine enough to resolve the phases of a CI-scale run.
const DefaultSamplePeriod = 4096

// Sampler accumulates a fixed-column time series: one row of float64
// metrics per sampling epoch. The driving loop (core.Run) snapshots IPC,
// bank occupancy, link utilization and offload queue depth; the column
// set is declared by the first SetCols call so exporters stay generic.
type Sampler struct {
	// Period is the sampling epoch in cycles.
	Period uint64

	cols  []string
	times []uint64
	rows  [][]float64
}

// NewSampler returns a sampler with the given epoch
// (DefaultSamplePeriod when period is 0).
func NewSampler(period uint64) *Sampler {
	if period == 0 {
		period = DefaultSamplePeriod
	}
	return &Sampler{Period: period}
}

// SetCols declares the metric columns; a no-op if already declared.
func (s *Sampler) SetCols(cols ...string) {
	if len(s.cols) == 0 {
		s.cols = cols
	}
}

// Cols returns the declared column names.
func (s *Sampler) Cols() []string { return s.cols }

// Record appends one row at the given cycle. vals must match the declared
// columns; this is per-epoch cold code, so the variadic allocation is fine.
func (s *Sampler) Record(cycle uint64, vals ...float64) {
	if len(vals) != len(s.cols) {
		panic(fmt.Sprintf("obs: sample with %d values for %d columns", len(vals), len(s.cols)))
	}
	s.times = append(s.times, cycle)
	s.rows = append(s.rows, vals)
}

// Cycles returns each row's cycle stamp, in recording order.
func (s *Sampler) Cycles() []uint64 { return s.times }

// Len reports the number of recorded rows.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// writeCSV appends this sampler's rows, one line per row, prefixed with
// the job key.
func (s *Sampler) writeCSV(w *bufio.Writer, job string) error {
	for i, t := range s.times {
		if _, err := fmt.Fprintf(w, "%s,%d", job, t); err != nil {
			return err
		}
		for _, v := range s.rows[i] {
			w.WriteByte(',')
			w.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// WriteSamplesCSV writes every record's time series as one CSV:
// job,cycle,<cols...>. Records come pre-sorted from Collector.Records, so
// the output is deterministic.
func WriteSamplesCSV(w io.Writer, recs []*JobRecord) error {
	bw := bufio.NewWriter(w)
	var cols []string
	for _, r := range recs {
		if r.Sampler != nil && len(r.Sampler.Cols()) > 0 {
			cols = r.Sampler.Cols()
			break
		}
	}
	bw.WriteString("job,cycle")
	for _, c := range cols {
		bw.WriteByte(',')
		bw.WriteString(c)
	}
	bw.WriteByte('\n')
	for _, r := range recs {
		if r.Sampler == nil {
			continue
		}
		if err := r.Sampler.writeCSV(bw, r.Key); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// jobSamples is the JSON shape of one job's time series.
type jobSamples struct {
	Job    string      `json:"job"`
	Cols   []string    `json:"cols"`
	Cycles []uint64    `json:"cycles"`
	Rows   [][]float64 `json:"rows"`
}

// WriteSamplesJSON writes every record's time series as one JSON array.
func WriteSamplesJSON(w io.Writer, recs []*JobRecord) error {
	out := make([]jobSamples, 0, len(recs))
	for _, r := range recs {
		if r.Sampler == nil {
			continue
		}
		out = append(out, jobSamples{
			Job:    r.Key,
			Cols:   r.Sampler.cols,
			Cycles: r.Sampler.times,
			Rows:   r.Sampler.rows,
		})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
