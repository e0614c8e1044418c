package iosched

import "github.com/reprolab/face/internal/metrics"

// Pipeline bundles the three stages of the background I/O path: the
// staging ring, the group writer draining it, and (optionally) the
// destager pool.  internal/face assembles one around an mvFIFO core.
type Pipeline struct {
	Ring   *Ring
	Writer *GroupWriter
	Dest   *Destager // nil when the core destages synchronously
}

// Drain flushes everything in flight: the staging ring first (group
// writes may generate destages), then the destage queue.
func (p *Pipeline) Drain() error {
	if err := p.Writer.Drain(); err != nil {
		return err
	}
	if p.Dest != nil {
		return p.Dest.Drain()
	}
	return nil
}

// Close drains the pipeline and stops every goroutine.
func (p *Pipeline) Close() error {
	err := p.Writer.Close()
	if p.Dest != nil {
		if derr := p.Dest.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// Abort stops every goroutine without draining, discarding staged and
// queued pages as a crash would.  Device access has quiesced on return.
func (p *Pipeline) Abort() {
	p.Writer.Abort()
	if p.Dest != nil {
		p.Dest.Abort()
	}
}

// Stats snapshots the pipeline counters.
func (p *Pipeline) Stats() metrics.PipelineStats {
	var s metrics.PipelineStats
	p.Ring.fillStats(&s)
	p.Writer.fillStats(&s)
	if p.Dest != nil {
		p.Dest.fillStats(&s)
	}
	return s
}
