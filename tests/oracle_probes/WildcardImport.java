package app;

import java.util.concurrent.*;
import javax.annotation.concurrent.ThreadSafe;

// Box is not java.util.concurrent.Box: a wildcard import names no type, so
// Box is not taken for a thread-safe type. set() writes box without the
// monitor get() reads it under: P3 alerts, and the oracle finds the race
@ThreadSafe
public class WildcardImport {
  private Box box = null;

  public synchronized Box get() {
    return box;
  }

  public void set(Box b) {
    box = b;
  }
}
