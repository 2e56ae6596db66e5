// Clientserver: the distributed deployment in one process — the backend
// served over real HTTP on a loopback port, and a guided participant
// driving it through the JSON API exactly as the standalone
// snaptask-server / snaptask-agent binaries do.
//
// Run with:
//
//	go run ./examples/clientserver
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/client"
	"snaptask/internal/core"
	"snaptask/internal/crowd"
	"snaptask/internal/server"
	"snaptask/internal/venue"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Shared world: in a real deployment this is physical reality; here
	// both sides derive it from the same seed.
	v, err := venue.SmallRoom()
	if err != nil {
		return err
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))

	// Backend.
	sys, err := core.NewSystem(v, world, core.Config{Margin: 3})
	if err != nil {
		return err
	}
	srv, err := server.New(sys, rand.New(rand.NewSource(2)))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpServer := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpServer.Serve(ln); err != http.ErrServerClosed {
			log.Printf("server: %v", err)
		}
	}()
	defer httpServer.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("backend listening on", base)

	// Mobile client.
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		return err
	}
	cl := client.New(base, nil)
	agent := &client.Agent{
		Client: cl,
		Worker: &crowd.GuidedWorker{
			World:      world,
			Venue:      v,
			Intrinsics: camera.DefaultIntrinsics(),
			Pos:        v.Entrance(),
		},
		Venue:   v,
		WalkMap: v.WalkMap(gt),
	}

	// Bootstrap over the wire, then register and run the leased task loop.
	rng := rand.New(rand.NewSource(3))
	boot, err := core.BootstrapCapture(world, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		return err
	}
	up, err := cl.UploadBootstrap(boot)
	if err != nil {
		return err
	}
	fmt.Printf("bootstrap: %d registered, %d points\n", up.Registered, up.NewPoints)

	reg, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
	if err != nil {
		return err
	}
	stats, err := agent.RunWorker(reg.ID, 60, rng)
	if err != nil {
		return err
	}
	fmt.Printf("agent: %d photo tasks, %d annotation tasks, %d photos, covered=%v\n",
		stats.PhotoTasks, stats.AnnotationTasks, stats.PhotosUploaded, stats.Covered)

	status, err := cl.Status()
	if err != nil {
		return err
	}
	fmt.Printf("backend: views=%d points=%d photos=%d covered=%v\n",
		status.Views, status.Points, status.PhotosProcessed, status.Covered)

	// Download the finished floor plan over HTTP.
	m, err := cl.FetchMap()
	if err != nil {
		return err
	}
	fmt.Printf("map %dx%d @ %.2f m/cell:\n", m.Width, m.Height, m.Res)
	for _, row := range m.Rows {
		fmt.Println(row)
	}
	return nil
}
