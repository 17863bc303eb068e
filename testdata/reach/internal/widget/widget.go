// Package widget holds one identifier of each kind the scan tells apart.
package widget

// Reached is called from main.
func Reached() {}

// Unused is reached by nothing; the scan reports it.
func Unused() {}

// Spare is reached by nothing and allow-listed.
func Spare() {}

// Busy is an error that classifies itself as transient.
type Busy struct{}

func (Busy) Error() string { return "busy" }

// TransientError marks Busy as transient for errors.As.
func (Busy) TransientError() bool { return true }
