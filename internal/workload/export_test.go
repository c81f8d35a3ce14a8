package workload

// Stop halts emission. No program stops its cross traffic before the run
// ends; tests use Stop to pin the generation idiom: a withdrawn on/off
// phase or emission fires as a no-op.
func (o *OnOff) Stop() {
	o.active = false
	o.gen++
}
