//go:build race

package serve

func init() { raceBuild = true }
