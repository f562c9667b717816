/*
 * A statistical CPU profiler as an LD_PRELOAD library: scripts/profile/profile.sh
 * builds it and report.py reads what it writes.
 *
 * ITIMER_PROF fires SIGPROF after every interval of CPU time the process
 * spends (user + system, any thread). On each tick the handler records the
 * interrupted instruction pointer and the return addresses `backtrace()`
 * finds above it. At exit the library writes, to
 * $TMPDIR/sampler.<pid> (or /tmp/sampler.<pid>), the process's own
 * /proc/self/maps, so report.py can map each address to a module and its
 * load base, and then one line of hex addresses per sample.
 *
 * The handler allocates nothing: samples go into a buffer reserved at load,
 * and `backtrace()` is called once in the constructor so its unwinder is
 * loaded before the first signal. Samples past the buffer's end are
 * counted as dropped. The kernel delivers ITIMER_PROF at its tick rate, so
 * the requested 1-ms interval yields about 250 samples per CPU-second on a
 * 250-Hz kernel; the file records the CPU time so the report can state the
 * rate it got.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define MAX_SAMPLES (1 << 17)
#define INTERVAL_US 1000

struct sample {
    uint32_t depth;
    void *pc[MAX_DEPTH];
};

static struct sample *samples;
static uint64_t next_slot;
static uint64_t dropped;

static void on_prof(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    uint64_t slot = __atomic_fetch_add(&next_slot, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    struct sample *s = &samples[slot];
    void *rip = (void *)((ucontext_t *)uctx)->uc_mcontext.gregs[REG_RIP];
    void *frames[MAX_DEPTH + 3];
    int n = backtrace(frames, MAX_DEPTH + 3);
    /* The unwinder walks through this handler and the signal trampoline
     * and then reports the interrupted frame at exactly `rip`; keep that
     * frame and its callers. If it never reaches `rip`, keep `rip` alone. */
    int first = n;
    for (int i = 0; i < n && i < 4; i++) {
        if (frames[i] == rip) {
            first = i;
            break;
        }
    }
    s->pc[0] = rip;
    uint32_t depth = 1;
    for (int i = first + 1; i < n && depth < MAX_DEPTH; i++) {
        s->pc[depth++] = frames[i];
    }
    s->depth = depth;
}

__attribute__((constructor)) static void sampler_start(void) {
    samples = calloc(MAX_SAMPLES, sizeof(struct sample));
    if (!samples) {
        return;
    }
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tv = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (!samples) {
        return;
    }
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    struct timespec cpu;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);

    const char *dir = getenv("TMPDIR");
    char path[4096];
    snprintf(path, sizeof path, "%s/sampler.%d", dir && *dir ? dir : "/tmp", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) {
        return;
    }
    uint64_t taken = next_slot < MAX_SAMPLES ? next_slot : MAX_SAMPLES;
    fprintf(out, "interval_us %d\ncpu_ns %lld\nsamples %llu\ndropped %llu\nmaps\n",
            INTERVAL_US, (long long)cpu.tv_sec * 1000000000LL + cpu.tv_nsec,
            (unsigned long long)taken, (unsigned long long)dropped);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps)) {
            fputs(line, out);
        }
        fclose(maps);
    }
    fputs("end maps\n", out);
    for (uint64_t i = 0; i < taken; i++) {
        for (uint32_t d = 0; d < samples[i].depth; d++) {
            fprintf(out, d ? " %lx" : "%lx", (unsigned long)samples[i].pc[d]);
        }
        fputc('\n', out);
    }
    fclose(out);
}
