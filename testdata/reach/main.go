// Command fixture is the reachability scan's planted module: it reaches
// widget.Reached by a call and widget.Busy's marker method only through
// the interface literal it hands to errors.As.
package main

import (
	"errors"
	"fmt"

	"fixture/internal/widget"
)

func main() {
	widget.Reached()
	var err error = widget.Busy{}
	var transient interface{ TransientError() bool }
	fmt.Println(errors.As(err, &transient))
}
