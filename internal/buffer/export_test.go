package buffer

// ShardStats returns one coherent statistics snapshot per shard, in shard
// order; they sum to Stats.  Only tests read the shards apart.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		out[i] = s.stats
		s.mu.Unlock()
	}
	return out
}
