//go:build race

package nesc

func init() { raceEnabled = true }
