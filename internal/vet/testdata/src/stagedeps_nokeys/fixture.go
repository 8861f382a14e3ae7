// Package fixture marks a dispatch function without declaring a StageKeys
// manifest: stagedeps must demand the per-stage key contract rather than
// silently verifying nothing.
package fixture

type Config struct{ N int }

// Run runs its one stage.
//
//tmi3dvet:dispatch
func Run(cfg Config, name string) int {
	switch name {
	case "only":
		return cfg.N
	}
	return 0
}
