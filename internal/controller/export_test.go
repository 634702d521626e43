package controller

import (
	"maps"

	"lazyctrl/internal/model"
)

// LearnedLocations returns a copy of the learning-mode location table.
func (c *Controller) LearnedLocations() map[model.MAC]model.SwitchID {
	return maps.Clone(c.state.learned)
}

// PendingFlows reports how many flows are queued awaiting location
// resolution.
func (c *Controller) PendingFlows() int { return c.state.pendingLen() }
