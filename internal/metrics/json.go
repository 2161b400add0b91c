package metrics

import "encoding/json"

// Payload is the wire format served at /metrics and consumed by scaptop: a
// registry snapshot augmented with windowed rates. It marshals with
// encoding/json; ParsePayload is the inverse.
type Payload struct {
	TimeUnixNano  int64            `json:"time_unix_nano"`
	WindowSeconds float64          `json:"window_seconds"`
	Cores         int              `json:"cores"`
	Counters      []CounterPayload `json:"counters"`
	Gauges        []GaugeSnap      `json:"gauges"`
	Histograms    []HistogramSnap  `json:"histograms"`
	// Drops is the drop-attribution table: every counter registered with
	// Family "drops", one row per cause, duplicated out of Counters so
	// consumers can render the table without knowing the cause set.
	Drops []CounterPayload `json:"drops,omitempty"`
}

// CounterPayload is one counter's snapshot plus its windowed per-second rate
// (and the per-core rates for per-core counters). Rates are zero on the
// first collection of a window.
type CounterPayload struct {
	CounterSnap
	Rate        float64   `json:"rate"`
	PerCoreRate []float64 `json:"per_core_rate,omitempty"`
}

// Counter returns the named counter in the payload, or nil when absent.
func (p *Payload) Counter(name string) *CounterPayload {
	for i := range p.Counters {
		if p.Counters[i].Name == name {
			return &p.Counters[i]
		}
	}
	return nil
}

// Histogram returns the named histogram in the payload, or nil when absent.
func (p *Payload) Histogram(name string) *HistogramSnap {
	for i := range p.Histograms {
		if p.Histograms[i].Name == name {
			return &p.Histograms[i]
		}
	}
	return nil
}

// Gauge returns the named gauge in the payload, or nil when absent.
func (p *Payload) Gauge(name string) *GaugeSnap {
	for i := range p.Gauges {
		if p.Gauges[i].Name == name {
			return &p.Gauges[i]
		}
	}
	return nil
}

// ParsePayload decodes a /metrics response body.
func ParsePayload(b []byte) (*Payload, error) {
	var p Payload
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, err
	}
	return &p, nil
}
