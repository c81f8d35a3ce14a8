package invariant

// Sweeps reports how many structural sweeps have completed.
func (c *Checker) Sweeps() int64 {
	if c == nil {
		return 0
	}
	return c.sweeps
}
