package obs

import (
	"sort"
	"sync"
)

// JobRecord is the collector's per-job slot: the deterministic report
// fields (embedded) plus the tracer and sampler the executing worker
// attaches to its machine. A record is written by exactly one worker
// goroutine; the collector only synchronizes creation and hit counting.
type JobRecord struct {
	JobReport
	// Trace is the job's event ring (nil when tracing is off).
	Trace *Tracer
	// Sampler is the job's time series (nil when sampling is off).
	Sampler *Sampler
	// Attrib is the job's cycle attribution (nil when attribution is
	// off). The executing worker attaches it to its machine.
	Attrib *Attribution
	// Exec is the execution-dependent attribution remainder the worker
	// fills after the run (nil when attribution is off or the job was
	// served from a cache).
	Exec *ExecReport
}

// Collector gathers per-job observability across a runner pool's workers.
// Tracing and sampling are enabled per collector: a zero TraceEvents or
// SamplePeriod leaves the corresponding hook nil, so untraced runs carry
// no ring or rows.
type Collector struct {
	// TraceEvents is the per-job trace ring capacity (0 = tracing off).
	TraceEvents int
	// SamplePeriod is the sampling epoch in cycles (0 = sampling off).
	SamplePeriod uint64
	// Attribution enables per-job cycle attribution (stall accounting).
	Attribution bool

	mu   sync.Mutex
	recs map[string]*JobRecord
}

// NewCollector returns a collector; traceEvents and samplePeriod select
// which hooks executed jobs get (0 disables each).
func NewCollector(traceEvents int, samplePeriod uint64) *Collector {
	return &Collector{
		TraceEvents:  traceEvents,
		SamplePeriod: samplePeriod,
		recs:         map[string]*JobRecord{},
	}
}

// Job returns (creating once) the record for a job key.
func (c *Collector) Job(key string) *JobRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.recs[key]; ok {
		return r
	}
	r := &JobRecord{JobReport: JobReport{Key: key}}
	if c.TraceEvents > 0 {
		r.Trace = NewTracer(c.TraceEvents)
	}
	if c.SamplePeriod > 0 {
		r.Sampler = NewSampler(c.SamplePeriod)
	}
	if c.Attribution {
		r.Attrib = NewAttribution()
	}
	c.recs[key] = r
	return r
}

// Hit counts one memo-cache hit against a job's record.
func (c *Collector) Hit(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.recs[key]; ok {
		r.MemoHits++
	}
}

// DiskHit counts one persistent-store hit against a job's record (the job
// was not simulated this run; its trace and samples stay empty).
func (c *Collector) DiskHit(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.recs[key]; ok {
		r.DiskHits++
	}
}

// Records returns every record sorted by job key: the deterministic
// iteration order all exporters share.
func (c *Collector) Records() []*JobRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*JobRecord, 0, len(c.recs))
	for _, r := range c.recs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Report assembles the deterministic portion of a run report from the
// collected records. The caller fills Executed/CacheHits and Env.
func (c *Collector) Report() *RunReport {
	recs := c.Records()
	rep := &RunReport{Schema: ReportSchema, Jobs: make([]JobReport, 0, len(recs))}
	for _, r := range recs {
		jr := r.JobReport
		jr.TraceDropped = r.Trace.Dropped()
		jr.Samples = r.Sampler.Len()
		if r.Attrib != nil {
			jr.Attribution = r.Attrib.Report()
			jr.Attribution.Exec = r.Exec
		}
		rep.Jobs = append(rep.Jobs, jr)
	}
	return rep
}
