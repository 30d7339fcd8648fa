#!/usr/bin/env bash
# The boot wait of every CI job that starts a server: poll URL every
# 0.3 s until it answers 2xx, for 30 s. When it never does, print the
# named log files and fail.
#
# Usage: scripts/wait-http.sh URL [LOGFILE...]
set -euo pipefail
url=${1:?usage: wait-http.sh URL [LOGFILE...]}
shift
for _ in $(seq 1 100); do
    curl -fsS "$url" > /dev/null 2>&1 && exit 0
    sleep 0.3
done
echo "$url never answered"
for log in "$@"; do
    if [ -e "$log" ]; then
        echo "== $log"
        cat "$log"
    fi
done
exit 1
