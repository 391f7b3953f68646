//go:build race

package served

func init() { raceEnabled = true }
