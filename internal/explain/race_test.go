//go:build race

package explain

func init() { raceBuild = true }
